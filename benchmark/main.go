// Command benchmark is the repository's one benchmark: four seeded
// workloads over the whole system — two that call the partitioning
// library, two that drive real spinnerd processes over loopback — each
// printing every metric by name with its unit and checking its outputs.
// See README.md for what each workload does and why.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// workload is one named scenario. run fills rep; a returned error means
// the run could not be completed at all (as opposed to a failed check).
type workload struct {
	name string
	run  func(cfg runConfig, env *environment, rep *report) error
}

var workloads = []workload{
	{"partition-scratch", func(cfg runConfig, _ *environment, rep *report) error {
		return runPartitionScratch(cfg, fullBatch, rep)
	}},
	{"adapt-elastic", func(cfg runConfig, _ *environment, rep *report) error {
		return runAdaptElastic(cfg, fullBatch, rep)
	}},
	{"serve-read", runServeRead},
	{"serve-write", runServeWrite},
}

const outDir = "out" // relative to the benchmark directory, git-ignored

func main() {
	name := flag.String("workload", "", "workload to run (default: all four, one result line each)")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	secs := flag.Float64("seconds", 25, "measuring time per run")
	trace := flag.Int("trace", 0, "1 = traced run: record spans, print the per-layer metrics, write out/trace-<workload>.jsonl and BUDGET.md")
	check := flag.Bool("check", false, "run every workload twice, traced and untraced, and compare the two sets")
	flag.Parse()
	// out/, BUDGET.md and the spinnerd build are relative to this
	// directory, wherever the command was started from.
	if _, file, _, ok := runtime.Caller(0); ok {
		if err := os.Chdir(filepath.Dir(file)); err != nil {
			fatal(err)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	// Children and temp dirs must go on every exit path, SIGINT included.
	env := newEnvironment()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		env.close()
		os.Exit(130)
	}()
	var err error
	if *check {
		err = runCheck(*seed, *secs, os.Stdout)
	} else {
		err = runWorkloads(env, *name, *seed, *secs, *trace != 0, os.Stdout)
	}
	env.close()
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

var errIncorrect = errors.New("a correctness check failed")

// runWorkloads runs the named workload in this process and prints its
// result. With no name it runs all four, each in a process of its own as
// the driver does: a load generator that inherits the partitioning
// workloads' heap measures a third slower.
func runWorkloads(env *environment, name string, seed uint64, secs float64, traced bool, w io.Writer) error {
	if name == "" {
		incorrect := false
		for _, wl := range workloads {
			out, err := runChild(wl.name, seed, secs, traced)
			fmt.Fprint(w, out)
			var exit *exec.ExitError
			if errors.As(err, &exit) && strings.HasPrefix(lastLine(out), "{") {
				incorrect = true // it printed a result: a failed check, not a failed run
			} else if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
		}
		if incorrect {
			return errIncorrect
		}
		return nil
	}
	i := slices.IndexFunc(workloads, func(wl workload) bool { return wl.name == name })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Fprintf(w, "# go=%s nproc=%d GOMAXPROCS=%d commit=%s seed=%d seconds=%g trace=%v\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(), seed, secs, traced)
	rep, err := runOne(env, workloads[i], seed, secs, traced)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if err := rep.print(w, defs); err != nil {
		return err
	}
	if !rep.correct() {
		return errIncorrect
	}
	return nil
}

// runChild runs one workload in a fresh process and returns its output.
func runChild(name string, seed uint64, secs float64, traced bool) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	// If this process is interrupted, the child is told to clean up too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, err := cmd.Output()
	return string(out), err
}

func lastLine(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	return lines[len(lines)-1]
}

// runOne runs one workload and, when traced, writes its span file.
func runOne(env *environment, wl workload, seed uint64, secs float64, traced bool) (*report, error) {
	cfg := runConfig{seed: seed, seconds: secs}
	if traced {
		cfg.tr = newTracer()
	}
	rep := newReport(wl.name)
	if err := wl.run(cfg, env, rep); err != nil {
		return nil, err
	}
	if traced {
		rep.set("proc.trace_overhead_frac", ratio(float64(cfg.tr.count())*spanCost().Seconds(), secs))
		rep.set("proc.bench_peak_rss_mb", peakRSSMB(os.Getpid()))
		if err := cfg.tr.write(filepath.Join(outDir, "trace-"+wl.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// commit names the source revision when the checkout is a git work tree
// (the driver's is not).
func commit() string {
	head, err := os.ReadFile("../.git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := string(head)
	if len(ref) > 5 && ref[:5] == "ref: " {
		b, err := os.ReadFile("../.git/" + ref[5:len(ref)-1])
		if err != nil {
			return "unknown"
		}
		ref = string(b)
	}
	return ref[:min(12, len(ref))]
}
