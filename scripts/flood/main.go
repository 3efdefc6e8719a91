// Command flood posts serve-write's flood batches to a spinnerd leader:
// every batch is 20 "+ u v" lines between distinct vertices below n, the
// 50 000 vertices of serve-write's leader (-synthetic 50000), and each of
// -conns connections posts batches back to back for -seconds. A
// 429 (the bounded mutation log is full) is counted and retried after
// 5 ms, as the benchmark's flood does. It prints one line: batches
// accepted, refused and failed.
//
//	go run ./scripts/flood -addr 127.0.0.1:18231 -conns 2 -seconds 10
//
// scripts/profile_serve.sh runs it while it profiles a leader and its
// follower.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api/client"
)

// n is the leader's vertex count and seed seeds connection c's bodies as
// seed+c.
const (
	n    = 50_000
	seed = 7
)

func main() {
	addr := flag.String("addr", "", "leader address (host:port)")
	conns := flag.Int("conns", 0, "connections posting at once")
	seconds := flag.Float64("seconds", 0, "how long to flood")
	flag.Parse()
	if *addr == "" || *conns < 1 || *conns > 64 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "flood: want -addr, 1 <= -conns <= 64 and -seconds > 0")
		os.Exit(2)
	}

	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	var accepted, refused, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < *conns; c++ {
		bodies := batches(rand.New(rand.NewSource(seed+int64(c))), 2048)
		cli := client.New("http://" + *addr)
		cli.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				_, err := cli.Mutate(context.Background(), bodies[i%len(bodies)])
				var apiErr *client.APIError
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
					refused.Add(1)
					time.Sleep(5 * time.Millisecond)
				default:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Printf("accepted=%d refused=%d failed=%d\n", accepted.Load(), refused.Load(), failed.Load())
	if failed.Load() > 0 {
		os.Exit(1)
	}
}

// batches returns count bodies of 20 add-edge lines among n vertices.
func batches(r *rand.Rand, count int) []string {
	out := make([]string, count)
	for i := range out {
		var b strings.Builder
		for j := 0; j < 20; j++ {
			u := r.Intn(n)
			v := r.Intn(n - 1)
			if v >= u {
				v++
			}
			fmt.Fprintf(&b, "+ %d %d\n", u, v)
		}
		out[i] = b.String()
	}
	return out
}
