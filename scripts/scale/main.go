// Command scale prints Spinner's scale curve on this host (§V-B, Figs. 8
// and 9: the cost of a run grows linearly with the edges). Each row is
// one probe: WattsStrogatz(n, 10, 0.3, 7), Convert, then PartitionWeighted
// at k = 32 with 2 workers, reporting the arcs of the converted graph, n,
// the partitioning time, its iterations, ns per arc and iteration, bytes
// allocated per arc by the partitioning, and the process's peak RSS
// (VmHWM). Every probe runs in a process of its own, so each row's peak
// RSS is that size's own; a size the host cannot fit prints as a row
// saying how its process ended (killed, out of memory), and the table
// goes on.
//
//	go run ./scripts/scale                     # 2 M, 20 M, 80 M and 160 M arcs (make scale)
//	go run ./scripts/scale 2000000 20000000    # the sizes given, in arcs
//
// A WS graph of out-degree 10 converts to about 20 arcs per vertex, so a
// size of a arcs probes n = a/20 vertices. The table is markdown.
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
)

// defaultArcs are the sizes make scale probes.
var defaultArcs = []int{2_000_000, 20_000_000, 80_000_000, 160_000_000}

func main() {
	args := os.Args[1:]
	if len(args) == 2 && args[0] == "row" {
		// One probe, in this process: what the table runs per size.
		arcs, err := strconv.Atoi(args[1])
		if err != nil || arcs < 20 {
			fail("scale: bad size %q", args[1])
		}
		if err := row(arcs / 20); err != nil {
			fail("scale: %v", err)
		}
		return
	}
	sizes := defaultArcs
	if len(args) > 0 {
		sizes = nil
		for _, a := range args {
			arcs, err := strconv.Atoi(a)
			if err != nil || arcs < 20 {
				fail("usage: scale [arcs...]")
			}
			sizes = append(sizes, arcs)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fail("scale: %v", err)
	}
	fmt.Printf("WattsStrogatz(n, 10, 0.3, 7) → Convert → PartitionWeighted, k = 32, 2 workers; %d CPUs, %s\n\n",
		runtime.NumCPU(), runtime.Version())
	fmt.Println("| arcs | n | partition | iterations | ns/arc/iter | alloc B/arc | peak RSS |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, arcs := range sizes {
		cmd := exec.Command(self, "row", strconv.Itoa(arcs))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			// The OOM killer's SIGKILL reads "signal: killed"; the Go
			// runtime's own out-of-memory exit "exit status 2".
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				err = errors.New(exit.String())
			}
			fmt.Printf("| ~%s | %d | did not finish: %v (out of memory?) | | | | |\n", millions(int64(arcs)), arcs/20, err)
			continue
		}
		fmt.Print(string(out))
	}
}

// row runs the probe at n vertices and prints its table row.
func row(n int) error {
	w := repro.Convert(repro.WattsStrogatz(n, 10, 0.3, 7))
	arcs := 2 * w.NumEdges()
	opts := repro.DefaultOptions(32)
	opts.NumWorkers = 2
	p, err := repro.NewPartitioner(opts)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := p.PartitionWeighted(w)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	fmt.Printf("| %s | %d | %.2f s | %d | %.1f | %.1f | %s |\n",
		millions(arcs), n, elapsed.Seconds(), res.Iterations,
		float64(elapsed.Nanoseconds())/float64(arcs)/float64(res.Iterations),
		float64(after.TotalAlloc-before.TotalAlloc)/float64(arcs), peakRSS())
	return nil
}

// peakRSS is this process's resident-set high-water mark, VmHWM in
// /proc/self/status, or "n/a" where there is none.
func peakRSS() string {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "n/a"
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return "n/a"
			}
			if kb >= 1<<20 {
				return fmt.Sprintf("%.2f GB", kb/(1<<20))
			}
			return fmt.Sprintf("%.0f MB", kb/(1<<10))
		}
	}
	return "n/a"
}

// millions formats a count of arcs as the table writes it: 2.0 M.
func millions(arcs int64) string { return fmt.Sprintf("%.1f M", float64(arcs)/1e6) }

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
