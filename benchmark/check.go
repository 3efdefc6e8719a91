package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// runCheck runs every workload twice, untraced and traced, each run in a
// process of its own as the driver does, and compares the two sets: each
// end-to-end metric must agree within its own bound, the exact-count layer
// metrics must agree to the last digit, and no operation may fail. It
// answers "can this host tell a regression of the bound's size from
// noise?" before anyone relies on the numbers.
func runCheck(seed uint64, secs float64, w io.Writer) error {
	var sets [2]map[string]result // workload + "/0" or "/1" → result
	bad := 0
	for s := range sets {
		sets[s] = map[string]result{}
		for _, wl := range workloads {
			for _, traced := range []bool{false, true} {
				out, err := runChild(wl.name, seed, secs, traced)
				var r result
				if jerr := json.Unmarshal([]byte(lastLine(out)), &r); jerr != nil {
					return fmt.Errorf("set %d, %s: %v\n%s", s+1, wl.name, err, out)
				}
				fmt.Fprintf(w, "# set %d %s trace=%v: attempted %d, failed %d\n", s+1, wl.name, traced, r.Attempted, r.Failed)
				if !r.Correct || r.Failed > 0 {
					fmt.Fprint(w, out)
					bad++
				}
				sets[s][fmt.Sprintf("%s/%v", wl.name, traced)] = r
			}
		}
	}
	fmt.Fprintf(w, "%-18s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, wl := range workloads {
		a, b := sets[0][wl.name+"/false"], sets[1][wl.name+"/false"]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := (y - x) / x
			verdict := ""
			if x == 0 || math.Abs(diff) > d.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "%-18s %-26s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", wl.name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
		a, b = sets[0][wl.name+"/true"], sets[1][wl.name+"/true"]
		for _, d := range perLayer {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			if !slices.Contains(exactCounts, d.Name) || (x == 0 && y == 0) {
				continue
			}
			verdict := ""
			if x != y {
				verdict = "  DISAGREE (exact count)"
				bad++
			}
			fmt.Fprintf(w, "%-18s %-26s %14.10g %14.10g%s\n", wl.name, d.Name, x, y, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("check: %d disagreements or failed runs", bad)
	}
	fmt.Fprintln(w, "check: the two sets agree")
	return nil
}
