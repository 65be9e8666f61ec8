package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds the binaries the suite builds, relative to the module
// root; .gitignore lists it.
const buildDir = ".bench_build"

// buildLirad compiles ./cmd/lirad unmodified and returns the binary's
// path and the build time.
func buildLirad() (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "lirad"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lirad")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/lirad: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// lirad is one running child process: the system under test.
type lirad struct {
	cmd      *exec.Cmd
	started  time.Time
	addr     string // wire listener
	httpAddr string // /metrics listener
	client   *http.Client
	exited   chan struct{} // closed when the process has been reaped
	waitErr  error

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startLirad execs the binary and waits until it has printed both listen
// addresses.
func startLirad(bin string, args []string) (*lirad, error) {
	d := &lirad{cmd: exec.Command(bin, args...), exited: make(chan struct{}), client: &http.Client{Timeout: 2 * time.Second}}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addrs := make(chan string, 2) // the two listen addresses, sent once each
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "lirad: serving "); ok {
				addrs <- strings.Fields(rest)[0]
			} else if rest, ok := strings.CutPrefix(line, "lirad: introspection on http://"); ok {
				addrs <- strings.SplitN(rest, "/", 2)[0]
			}
		}
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	for _, dst := range []*string{&d.addr, &d.httpAddr} {
		select {
		case *dst = <-addrs:
		case <-d.exited:
			return nil, fmt.Errorf("lirad exited during start-up: %v\n%s", d.waitErr, d.log())
		case <-time.After(10 * time.Second):
			d.stop()
			return nil, fmt.Errorf("lirad did not report its listen addresses\n%s", d.log())
		}
	}
	return d, nil
}

func (d *lirad) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

func (d *lirad) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop terminates the process and waits until it has ended.
func (d *lirad) stop() {
	if d.alive() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
		select {
		case <-d.exited:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.client.CloseIdleConnections()
}

// scrape reads lirad's /metrics page into a name → value map (histogram
// series keep their label suffix and are simply not looked up).
func (d *lirad) scrape() (map[string]float64, error) {
	resp, err := d.client.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, 128)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[line[:i]] = v
			}
		}
	}
	return m, nil
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux the suite
// runs on (no cgo, so sysconf is out of reach).
const clockTick = 100

// cpuSeconds is the child's utime+stime so far.
func (d *lirad) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM).
func (d *lirad) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
