// Command puschbench is the repository's host-performance benchmark:
// four fixed workloads that stress different layers of the simulator,
// each measured untraced for end-to-end metrics and then traced, on a
// prefix of the same inputs, for a per-layer picture of where the host
// time goes. cmd/puschbench/README.md is its specification.
//
// Usage:
//
//	puschbench [-workload all|slot-mempool64|kernels-paper|serve-cold|replay-long]
//	           [-seed N] [-seconds S] [-trace 0|1] [-scale X] [-runs N] [-out result.json]
//	puschbench -compare base.json new.json
//
// It runs from the repository root or below it, and finds the root as
// the nearest directory holding BENCHMARK.json. Every metric is printed
// as one "workload metric value unit" line. A single-workload run ends
// with one JSON line holding the correctness tally and the metrics
// BENCHMARK.json lists: the end-to-end ones, or with -trace 1 the
// per-layer ones. The traced phase's Chrome trace goes to
// .bench_build/puschbench/<workload>.trace.json under the root.
// -workload all (the default) and -runs N run each workload in its own
// child process, so peak RSS is per workload, and -out keeps every run
// for -compare.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// header identifies where and how a result set was measured, so rows
// from different hosts or settings are never compared unawares.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// resultFile is the -out format: the header plus every run's results,
// runs[i] holding run i's workloads in run order.
type resultFile struct {
	Header header      `json:"header"`
	Runs   [][]*result `json:"runs"`
}

func newHeader(o opts) header {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitCommit:  commit,
		Seed:       o.seed,
		Scale:      o.scale,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("puschbench: ")
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of each workload's measured phase, in seconds")
	traceFlag := flag.Int("trace", 1, "1 runs the traced phase after the measured one; 0 skips it")
	scale := flag.Float64("scale", 1, "input-size multiplier (0.01 for a smoke run)")
	runs := flag.Int("runs", 1, "run the benchmark this many times, keeping every run in -out")
	out := flag.String("out", "", "write the header and every run's results as JSON to this file")
	compare := flag.Bool("compare", false, "compare two -out files: puschbench -compare base.json new.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		log.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		log.Fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two result files: base.json new.json")
		}
		bad, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), sp)
		if err != nil {
			log.Fatal(err)
		}
		if bad > 0 {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %q", flag.Args())
	}
	switch {
	case *traceFlag != 0 && *traceFlag != 1:
		log.Fatalf("-trace %d: want 0 or 1", *traceFlag)
	case !(*seconds > 0), !(*scale > 0), *runs < 1:
		log.Fatal("-seconds and -scale must be positive and -runs at least 1")
	}
	if *workload != "all" {
		names = []string{*workload}
	}
	o := opts{seed: *seed, seconds: *seconds, scale: *scale, trace: *traceFlag == 1, root: root}
	file := resultFile{Header: newHeader(o)}

	if len(names) == 1 && *runs == 1 {
		if o.trace {
			o.traceOut = filepath.Join(root, ".bench_build", "puschbench", names[0]+".trace.json")
		}
		r, err := runWorkload(names[0], o)
		if err != nil {
			log.Fatal(err)
		}
		line, err := summaryLine(r, sp, o.trace)
		if err != nil {
			log.Fatal(err)
		}
		printResult(os.Stdout, r)
		file.Runs = [][]*result{{r}}
		if *out != "" {
			if err := writeResults(*out, &file); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println(string(line))
		return
	}

	failed := 0
	for range *runs {
		var rs []*result
		for _, name := range names {
			r, err := runChild(name, o)
			if err != nil {
				log.Fatal(err)
			}
			if !r.Correct {
				failed++
			}
			rs = append(rs, r)
		}
		file.Runs = append(file.Runs, rs)
	}
	if *out != "" {
		if err := writeResults(*out, &file); err != nil {
			log.Fatal(err)
		}
	}
	if failed > 0 {
		log.Fatalf("%d workload run(s) failed their correctness checks", failed)
	}
}

// printResult prints every metric as "workload metric value unit", then
// the failure notes.
func printResult(w io.Writer, r *result) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "puschbench: %s: FAILED: %s\n", r.Workload, f)
	}
}

// runChild runs one workload in a child process of this binary, echoes
// its metric lines, and reads its full result back from the child's
// -out file.
func runChild(name string, o opts) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.root, ".bench_build", "puschbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	outPath := filepath.Join(dir, name+".result.json")
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace,
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-out", outPath)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	// Echo the metric lines; the last line is the child's summary.
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	f, err := readResults(outPath)
	if err != nil {
		return nil, err
	}
	if len(f.Runs) != 1 || len(f.Runs[0]) != 1 {
		return nil, fmt.Errorf("%s: %s holds no single result", name, outPath)
	}
	return f.Runs[0][0], nil
}

func writeResults(path string, f *resultFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, errors.New(path + ": no runs")
	}
	return &f, nil
}
