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
const mainEnv = "PUSCHD_TEST_MAIN"

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
// "@name" is a file there, so the second cache run reads what the first
// wrote and the replay reads the saved trace. Every file a run names is
// digested after it.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"poisson", []string{"-gen", "poisson", "-jobs", "8", "-servers", "2"}},
	{"fleet-sinr", []string{"-gen", "mix", "-jobs", "32", "-timing", "analytic", "-cells", "3", "-balance", "sinr", "-channel", "tdl-b", "-doppler", "30", "-rician-k", "2"}},
	{"campaign", []string{"-gen", "campaign", "-snr-min", "10", "-snr-max", "14", "-cluster", "terapool", "-timing", "analytic", "-scheme", "64qam"}},
	{"bursty-pipe", []string{"-gen", "bursty", "-jobs", "8", "-layout", "pipe"}},
	{"cache-cold", []string{"-gen", "mix", "-jobs", "24", "-cache-file", "@cache.jsonl"}},
	{"cache-warm", []string{"-gen", "mix", "-jobs", "24", "-cache-file", "@cache.jsonl"}},
	{"trace-out", []string{"-gen", "poisson", "-jobs", "6", "-trace-out", "@trace.jsonl"}},
	{"trace-in", []string{"-in", "@trace.jsonl"}},
}

// TestCLIGolden pins puschd end to end: the SHA-256 of every pinned
// invocation's stdout and of every file it writes, and a zero exit code.
// Regenerate deliberately with
// `go test ./cmd/puschd -run TestCLIGolden -update-golden`.
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
		{[]string{"-channel", "tdl-b", "-doppler", "inf", "-jobs", "2"}, "doppler"},
		{[]string{"-rician-k", "nan", "-jobs", "2"}, "rician-k"},
		{[]string{"-jobs", "2000000"}, "jobs"},
		{[]string{"-cluster", "bogus", "-jobs", "2"}, "cluster"},
		{[]string{"-scheme", "bogus", "-jobs", "2"}, "scheme"},
		{[]string{"-timing", "bogus", "-jobs", "2"}, "timing"},
		{[]string{"-timing", "analytic", "-calibration", "@missing.json", "-jobs", "2"}, "calibration"},
		{[]string{"-gen", "bogus"}, "gen"},
		{[]string{"-balance", "bogus", "-jobs", "2"}, "balance"},
		{[]string{"-cells", "1099511627776", "-jobs", "2"}, "-cells"},
		{[]string{"-doppler", "-5", "-jobs", "2"}, "-doppler"},
		{[]string{"-rician-k", "-1", "-jobs", "2"}, "-rician-k"},
		{[]string{"-workers", "1099511627776", "-jobs", "2"}, "-workers"},
		{[]string{"-layout", "pipe/f8/b8/d8", "-jobs", "2"}, "-layout"},
		{[]string{"-gen", "campaign", "-snr-min", "20", "-snr-max", "10"}, "-snr-min"},
	} {
		_, stderr, code := run(t, t.TempDir(), r.args...)
		if code != 1 || !bytes.Contains(stderr, []byte(r.want)) {
			t.Errorf("puschd %s: exit %d, stderr %q; want exit 1 naming %q", strings.Join(r.args, " "), code, stderr, r.want)
		}
	}
}
