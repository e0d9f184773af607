package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cli_golden.txt from the current command")

const goldenPath = "testdata/cli_golden.txt"

// mainEnv makes a re-executed test binary run the command itself.
const mainEnv = "PUSCHSIM_TEST_MAIN"

// TestMain runs main() with the remaining arguments when the test binary
// is re-executed with mainEnv set, so the tests drive the real command
// end to end: flag parsing, exit codes and the files it writes.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes the command from the repository root, so default paths
// such as the calibration artifact resolve, and returns its stdout,
// stderr and exit code. An argument "@name" becomes the file name in dir.
func run(t *testing.T, dir string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args = append([]string(nil), args...)
	for i, a := range args {
		if strings.HasPrefix(a, "@") {
			args[i] = filepath.Join(dir, a[1:])
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return out.Bytes(), errOut.Bytes(), code
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenRuns are the pinned invocations, run in order in one directory:
// "@name" is a file there, so the warm cache run reads what the cold one
// wrote. Every file a run names is digested after it.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"chain", []string{"-chain", "-cluster", "mempool"}},
	{"chain-pipe-tdlb", []string{"-chain", "-cluster", "mempool", "-layout", "pipe", "-channel", "tdl-b", "-doppler", "30"}},
	{"chain-analytic", []string{"-chain", "-cluster", "mempool", "-timing", "analytic"}},
	{"chain-profile", []string{"-chain", "-cluster", "mempool", "-trace-profile", "@chain.json"}},
	{"usecase-json", []string{"-cluster", "mempool", "-json"}},
	{"campaign-snr", []string{"-campaign", "snr", "-cluster", "mempool", "-snr-min", "20", "-snr-max", "24", "-scheme", "16qam", "-workers", "2"}},
	{"campaign-profiles", []string{"-campaign", "profiles", "-cluster", "mempool", "-timing", "analytic", "-doppler", "30"}},
	{"campaign-fleet", []string{"-campaign", "fleet", "-cluster", "mempool", "-timing", "analytic"}},
	{"cache-cold", []string{"-campaign", "snr", "-cluster", "mempool", "-snr-min", "20", "-snr-max", "24", "-cache-file", "@cache.jsonl"}},
	{"cache-warm", []string{"-campaign", "snr", "-cluster", "mempool", "-snr-min", "20", "-snr-max", "24", "-cache-file", "@cache.jsonl"}},
}

// TestCLIGolden pins puschsim end to end: the SHA-256 of every pinned
// invocation's stdout and of every file it writes, and a zero exit code.
// Regenerate deliberately with
// `go test ./cmd/puschsim -run TestCLIGolden -update-golden`.
func TestCLIGolden(t *testing.T) {
	dir := t.TempDir()
	var got strings.Builder
	for _, r := range goldenRuns {
		stdout, stderr, code := run(t, dir, r.args...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s", r.name, code, stderr)
		}
		fmt.Fprintf(&got, "%s.stdout %s\n", r.name, digest(stdout))
		for _, a := range r.args {
			if strings.HasPrefix(a, "@") {
				b, err := os.ReadFile(filepath.Join(dir, a[1:]))
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				fmt.Fprintf(&got, "%s.%s %s\n", r.name, a[1:], digest(b))
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s: %v", goldenPath, err)
	}
	if string(want) != got.String() {
		t.Errorf("CLI digests differ from %s:\n--- got\n%s--- pinned\n%s", goldenPath, got.String(), want)
	}
}

// TestCLIErrors holds bad flag values to exit code 1 with an error on
// stderr that names the flag.
func TestCLIErrors(t *testing.T) {
	for _, r := range []struct {
		args []string
		want string
	}{
		{[]string{"-chain", "-snr", "nan"}, "snr"},
		{[]string{"-chain", "-cluster", "bogus"}, "cluster"},
		{[]string{"-chain", "-cluster", "mempool", "-layout", "pipe/f9223372036854775807/b1/d1"}, "layout"},
		{[]string{"-chain", "-cluster", "mempool", "-timing", "bogus"}, "timing"},
		{[]string{"-chain", "-cluster", "mempool", "-timing", "analytic", "-calibration", "@missing.json"}, "calibration"},
		{[]string{"-campaign", "snr", "-cluster", "mempool", "-scheme", "bogus"}, "scheme"},
		{[]string{"-campaign", "snr", "-cluster", "mempool", "-snr-min", "30", "-snr-max", "20"}, "snr-min"},
		{[]string{"-campaign", "bogus", "-cluster", "mempool"}, "campaign"},
		{[]string{"-chain", "-cluster", "mempool", "-scheme", "bogus"}, "-scheme"},
		{[]string{"-chain", "-cluster", "mempool", "-doppler", "-5"}, "-doppler"},
		{[]string{"-campaign", "snr", "-cluster", "mempool", "-workers", "1099511627776"}, "-workers"},
		{[]string{"-cluster", "mempool", "-chol-batch", "1099511627776"}, "-chol-batch"},
	} {
		_, stderr, code := run(t, t.TempDir(), r.args...)
		if code != 1 || !bytes.Contains(stderr, []byte(r.want)) {
			t.Errorf("puschsim %s: exit %d, stderr %q; want exit 1 naming %q", strings.Join(r.args, " "), code, stderr, r.want)
		}
	}
}
