// Command benchmark is the repository's benchmark. It runs one workload —
// library, fleet or overlayd, or all three in turn — from a seed, measures
// it for a fixed time, checks that the program's outputs are correct, and
// prints every metric by name and unit. Its last line of output is one JSON
// object:
//
//	{"correct":true,"attempted":1393,"failed":0,"metrics":{"setup_s":{"value":0.21,"unit":"s"},...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) the per-layer ones. README.md defines every metric and says why
// each workload was chosen. Run it through run.sh, which builds this command
// and overlayd from source:
//
//	bash benchmark/run.sh --workload library --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// quick shrinks every workload to seconds-long sizes (the harness's
	// own tests run it).
	quick bool
	// stateDir holds what runs leave behind: output digests, traces and
	// per-run temporary directories.
	stateDir string
	// overlayd is the daemon binary the overlayd workload starts.
	overlayd string
}

// outcome is a finished workload run.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	// problems lists every failed correctness check.
	problems []string
	notes    []noteLine
	// digest fingerprints the deterministic outputs (0 when the workload has
	// none); trace is a traced run's JSONL trace.
	digest uint64
	trace  []byte
}

type noteLine struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) note(name string, v float64, unit string) {
	o.notes = append(o.notes, noteLine{name, v, unit})
}

func main() { os.Exit(run()) }

func run() int {
	var rc runConfig
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "library | fleet | overlayd | all")
	flag.Uint64Var(&rc.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&rc.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.BoolVar(&rc.quick, "quick", false, "tiny sizes, for testing the harness")
	flag.StringVar(&rc.stateDir, "state", ".bench_build", "directory for digests, traces and temporary files")
	flag.StringVar(&rc.overlayd, "overlayd", "", "overlayd binary (overlayd workload)")
	flag.Parse()
	rc.traced = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || rc.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	if rc.workload == "all" {
		return runAll(rc, trace)
	}

	// A signal stops the run. The overlayd workload sees the cancelled
	// context and reaps its daemon; should it not return in time, every
	// daemon still running is stopped here before exiting.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cancel()
		if rc.workload == "overlayd" {
			time.Sleep(10 * time.Second)
			reapAll()
		}
		os.Exit(130)
	}()

	// A run must end within three minutes at the benchmark's run length,
	// whatever the daemon does.
	limit := 2*time.Minute + time.Duration(4*rc.seconds*float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: run exceeded %v\n", rc.workload, limit)
		reapAll()
		os.Exit(1)
	})
	defer watchdog.Stop()

	out, err := runWorkload(ctx, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", rc.workload, err)
		return 1
	}
	if out.metrics["peak_rss_mb"] == 0 && !rc.traced {
		out.metrics["peak_rss_mb"] = peakRSSMB("self")
	}
	if err := checkDigest(rc, out); err != nil {
		out.problems = append(out.problems, err.Error())
	}
	if out.trace != nil {
		name := fmt.Sprintf("%s-seed%d.jsonl", rc.workload, rc.seed)
		if err := writeState(rc.stateDir, "traces", name, out.trace); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return report(os.Stdout, rc, out)
}

// runAll runs every workload in a process of its own, one after another,
// exactly as separate runs would: each prints its lines and result object.
func runAll(rc runConfig, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range []string{"library", "fleet", "overlayd"} {
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(rc.seed, 10),
			"-seconds", fmt.Sprint(rc.seconds), "-trace", strconv.Itoa(trace), "-quick="+strconv.FormatBool(rc.quick),
			"-state", rc.stateDir, "-overlayd", rc.overlayd)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// Should this process die, the workload run is told to stop (and
		// reaps its own daemon).
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

func runWorkload(ctx context.Context, rc runConfig) (*outcome, error) {
	switch rc.workload {
	case "library":
		return runBatch(rc, library(rc))
	case "fleet":
		return runBatch(rc, fleet(rc))
	case "overlayd":
		return runOverlayd(ctx, rc)
	}
	return nil, fmt.Errorf("unknown workload (want library, fleet or overlayd)")
}

// report prints the human-readable lines, then the result object as the
// last line. It returns the exit code: 1 when any check failed.
func report(w io.Writer, rc runConfig, out *outcome) int {
	specs := endToEnd
	if rc.traced {
		specs = perLayer
	}
	fmt.Fprintf(w, "workload %s, seed %d, %gs, trace %t\n", rc.workload, rc.seed, rc.seconds, rc.traced)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %-48s %14.6g %s\n", n.name, n.value, n.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		v := out.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, fmt.Sprintf("metric %s is %v", s.name, v))
			v = 0
		}
		metrics[s.name] = value{v, s.unit}
		fmt.Fprintf(w, "  %-48s %14.6g %s\n", s.name, v, s.unit)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}

// checkDigest compares the run's deterministic outputs with those an
// earlier run of the same build, workload and seed recorded, and records
// them when no earlier run did.
func checkDigest(rc runConfig, out *outcome) error {
	if out.digest == 0 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReader(f)); err != nil {
		return fmt.Errorf("hashing the benchmark binary: %w", err)
	}
	key := fmt.Sprintf("%s-seed%d-s%g-quick%t-trace%t-%x", rc.workload, rc.seed, rc.seconds, rc.quick, rc.traced, h.Sum(nil)[:8])
	path := filepath.Join(rc.stateDir, "digests", key)
	want := strconv.FormatUint(out.digest, 16)
	if prev, err := os.ReadFile(path); err == nil {
		if got := strings.TrimSpace(string(prev)); got != want {
			return fmt.Errorf("deterministic outputs differ from an earlier run with the same seed (%s vs %s)", want, got)
		}
		return nil
	}
	return writeState(rc.stateDir, "digests", key, []byte(want+"\n"))
}

// writeState writes data to stateDir/dir/name.
func writeState(stateDir, dir, name string, data []byte) error {
	d := filepath.Join(stateDir, dir)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(d, name), data, 0o644)
}

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc; pid is
// a process id or "self".
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
