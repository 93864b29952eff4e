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
	"syscall"
	"time"
)

// connections is the load generator's closed-loop concurrency and the
// daemon's worker count: the host has two cores.
const connections = 2

// daemon is one palladium-serve child process.
type daemon struct {
	cmd    *exec.Cmd
	out    bytes.Buffer // the daemon's stdout and stderr; read only after exit
	exited chan struct{}
	base   string // http://host:port
	// served counts the 200s of /serve this client received over the
	// daemon's life, for the cross-check against /metrics.
	served int
}

// daemonArgs are the flags every benchmark daemon runs with: two
// workers with autoscaling off (max = workers), and an admission bound
// two closed-loop connections cannot reach even while the pool is still
// retiring a request whose response the client already has.
func daemonArgs(addrFile string) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-file-size", strconv.Itoa(fileSize),
		"-workers", strconv.Itoa(connections), "-max-workers", strconv.Itoa(connections),
		"-queue", strconv.Itoa(4 * connections),
	}
}

// saveTemplate has the daemon write the pristine template image that
// serve-clone daemons cold-start from.
func saveTemplate(bin, path string) error {
	cmd := exec.Command(bin, "-save-template", path, "-file-size", strconv.Itoa(fileSize))
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("saving template: %v: %s", err, out)
	}
	return nil
}

// startDaemon execs the daemon and returns once it has answered its
// first 200, with the time from exec to that response.
func startDaemon(bin, workdir string, extra []string, client *http.Client) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(workdir, fmt.Sprintf("addr-%d", os.Getpid()))
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append(daemonArgs(addrFile), extra...)...)
	d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
	// Should the benchmark itself be killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting daemon: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState in stop
		close(d.exited)
	}()
	deadline := t0.Add(60 * time.Second)
	for d.base == "" {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			if err := os.Remove(addrFile); err != nil {
				d.kill()
				return nil, 0, err
			}
			break
		}
		if err := d.waitTick(deadline); err != nil {
			return nil, 0, err
		}
	}
	for {
		code, err := d.get(client, "/serve?model=static", io.Discard)
		if err == nil && code == http.StatusOK {
			d.served++
			return d, time.Since(t0), nil
		}
		if err := d.waitTick(deadline); err != nil {
			return nil, 0, err
		}
	}
}

// waitTick sleeps one polling interval, failing once the daemon has
// exited or the deadline has passed.
func (d *daemon) waitTick(deadline time.Time) error {
	select {
	case <-d.exited:
		return fmt.Errorf("daemon exited during start-up: %s", d.out.String())
	case <-time.After(200 * time.Microsecond):
	}
	if time.Now().After(deadline) {
		d.kill()
		return fmt.Errorf("daemon did not answer within a minute")
	}
	return nil
}

// kill ends the daemon without a drain and waits for it; on a daemon
// that has already exited it does nothing.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // it may already have exited
	<-d.exited
}

// get fetches path and copies the body to w.
func (d *daemon) get(client *http.Client, path string, w io.Writer) (int, error) {
	resp, err := client.Get(d.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// getText fetches a text endpoint that must answer 200.
func (d *daemon) getText(client *http.Client, path string) (string, error) {
	var b strings.Builder
	code, err := d.get(client, path, &b)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, code)
	}
	return b.String(), nil
}

// heapStats reads the runtime statistics the daemon's heap profile
// prints (TotalAlloc, HeapAlloc, NumGC, ...); gc forces a collection
// first, so HeapAlloc is the live heap.
func (d *daemon) heapStats(client *http.Client, gc bool) (map[string]float64, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	text, err := d.getText(client, path)
	if err != nil {
		return nil, err
	}
	return parseHeapStats(text)
}

// metrics reads the daemon's /metrics counters.
func (d *daemon) metrics(client *http.Client) (map[string]float64, error) {
	text, err := d.getText(client, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(text), nil
}

// cpuTime is the daemon's user+system CPU so far, read from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// stop sends SIGTERM, waits for the daemon to drain and exit, and
// returns its total user+system CPU from the wait4 rusage. The daemon
// exits 0 only when every admitted request completed or failed.
func (d *daemon) stop() (time.Duration, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("signalling daemon: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, fmt.Errorf("daemon did not exit within a minute of SIGTERM")
	}
	st := d.cmd.ProcessState
	if code := st.ExitCode(); code != 0 {
		return 0, fmt.Errorf("daemon exited %d after SIGTERM: %s", code, d.out.String())
	}
	return st.UserTime() + st.SystemTime(), nil
}

// parseProcStatCPU returns utime+stime from a /proc/<pid>/stat line.
// The command name (field 2) may hold spaces, so fields are counted
// from the closing parenthesis.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ut+stt) * tick, nil
}

// parseHeapStats extracts the "# Name = value" runtime statistics the
// debug=1 heap profile ends with.
func parseHeapStats(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		name, val, ok := strings.Cut(line[2:], " = ")
		if !ok || strings.ContainsAny(name, " []") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	for _, want := range []string{"TotalAlloc", "HeapAlloc", "NumGC"} {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("heap profile lacks %s", want)
		}
	}
	return out, sc.Err()
}

// parseMetrics reads the unlabelled "name value" lines of /metrics.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}
