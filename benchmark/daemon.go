package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/api/client"
)

// environment owns everything a run leaves on the machine: spinnerd
// children and temp data dirs. close is idempotent and is called on
// every exit path, so a failed check or SIGINT leaks nothing.
type environment struct {
	mu      sync.Mutex
	daemons []*daemon
	dirs    []string
	built   string // path of the spinnerd binary once built
	buildS  float64
}

func newEnvironment() *environment { return &environment{} }

func (e *environment) close() {
	e.mu.Lock()
	daemons, dirs := e.daemons, e.dirs
	e.daemons, e.dirs = nil, nil
	e.mu.Unlock()
	for _, d := range daemons {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// tempDir makes a data dir under out/ (never outside the checkout).
func (e *environment) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(outDir, prefix+"-")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.dirs = append(e.dirs, dir)
	e.mu.Unlock()
	return dir, nil
}

// build compiles spinnerd from the checkout's source, once per process.
// Its time is reported as proc.build_s and is part of no other metric.
func (e *environment) build() (string, error) {
	if e.built != "" {
		return e.built, nil
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "spinnerd"))
	if err != nil {
		return "", err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/spinnerd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build spinnerd: %w\n%s", err, out)
	}
	e.built, e.buildS = bin, time.Since(start).Seconds()
	return bin, nil
}

// daemon is one spinnerd child with its log and a client per purpose.
type daemon struct {
	name    string
	addr    string
	args    []string
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait has returned
	cli     *client.Client
}

// freeAddr picks a loopback port nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newClient returns an API client that owns exactly one connection, so
// "n connections" in a workload means n sockets.
func newClient(addr string) *client.Client {
	c := client.New("http://" + addr)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return c
}

// start launches spinnerd with args plus -addr on a free port, capturing
// stdout and stderr to out/<log>.log, and waits until it answers healthy.
// A daemon that exits first fails the run with the tail of its log.
func (e *environment) start(name, log string, args ...string) (*daemon, error) {
	bin, err := e.build()
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return e.startAt(bin, name, log, addr, args)
}

func (e *environment) startAt(bin, name, log, addr string, args []string) (*daemon, error) {
	d := &daemon{name: name, addr: addr, args: args, logPath: filepath.Join(outDir, log+".log"),
		exited: make(chan struct{}), cli: newClient(addr)}
	logFile, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(logFile, "--- %s %s -addr %s %s\n", time.Now().Format(time.RFC3339), name, addr, strings.Join(args, " "))
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	// If the benchmark itself is killed -9, the kernel takes the child too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = d.cmd.Start()
	logFile.Close() // the child holds its own descriptor
	if err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed child is not news
		close(d.exited)
	}()
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	if err := d.waitHealthy(60 * time.Second); err != nil {
		return nil, err
	}
	return d, nil
}

// restart starts a killed daemon again on the same address and data dir
// and returns the time from exec to its first answered lookup.
func (e *environment) restart(old *daemon, log string) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := e.startAt(e.built, old.name, log, old.addr, old.args)
	if err != nil {
		return nil, 0, err
	}
	for {
		if _, err := d.cli.Lookup(context.Background(), 0); err == nil {
			return d, time.Since(start), nil
		}
		if err := d.alive(); err != nil {
			return nil, 0, err
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("%s exited early; log tail:\n%s", d.name, tail(d.logPath, 15))
	default:
		return nil
	}
}

func (d *daemon) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := d.alive(); err != nil {
			return err
		}
		if h, err := d.cli.Health(context.Background()); err == nil && h.Status == "ok" {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v; log tail:\n%s", d.name, timeout, tail(d.logPath, 15))
}

// kill sends SIGKILL (the crash the recovery path is built for) and
// waits until the process has ended.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.exited
}

func tail(path string, lines int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	all := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	return string(bytes.Join(all[max(0, len(all)-lines):], []byte("\n")))
}

// cpuTime returns the user+system CPU time pid has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func cpuTime(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are safe to split.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

// peakRSSMB returns pid's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// dirSizeMB sums the regular files under dir.
func dirSizeMB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil {
			// Checkpoint temp files vanish while we walk; skip them.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if info, err := de.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1e6
}
