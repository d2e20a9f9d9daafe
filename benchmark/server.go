package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one child qiranad/qirouter process on a loopback port.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	log     *os.File
	exited  chan struct{}
	spawned time.Time
	healthy time.Duration // spawn → first /v1/healthz 200
}

// freeAddr asks the kernel for an unused loopback port. The daemons
// print only the address they were given, so the benchmark must choose
// one rather than pass port 0.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns the workload's daemon and waits until it answers
// /v1/healthz.
func startServer(binDir, runDir string, w *workload, dataDir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(runDir, w.bin+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, w.bin), w.serverArgs(addr, dataDir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{}), spawned: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", w.bin, err)
	}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	deadline := time.After(60 * time.Second)
	for {
		resp, err := http.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.healthy = time.Since(s.spawned)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, fmt.Errorf("%s exited before becoming healthy (see %s)", w.bin, logf.Name())
		case <-deadline:
			s.kill()
			return nil, fmt.Errorf("%s not healthy after 60s", w.bin)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if it does not.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// kill ends the server without letting it checkpoint, as a crash would.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.log.Close()
}

// procSample is one reading of the server's /proc entries.
type procSample struct {
	userTicks, sysTicks uint64
	hwmKB, rssKB        uint64
}

// clockTick is the kernel's USER_HZ; Linux fixes it at 100 for every
// architecture Go supports.
const clockTick = 100

func (s *server) proc() (procSample, error) {
	var p procSample
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, so 12 and 13 after the ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 14 {
		return p, fmt.Errorf("short /proc/%s/stat", pid)
	}
	p.userTicks, _ = strconv.ParseUint(f[11], 10, 64)
	p.sysTicks, _ = strconv.ParseUint(f[12], 10, 64)
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		var dst *uint64
		switch {
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &p.hwmKB
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &p.rssKB
		default:
			continue
		}
		if f := strings.Fields(line); len(f) >= 2 {
			*dst, _ = strconv.ParseUint(f[1], 10, 64)
		}
	}
	return p, nil
}

// hostCPU reads the machine's CPU times from /proc/stat: the ticks the
// hypervisor ran something else while a core here wanted to run (steal),
// and all ticks. The share stolen during a window is reported as
// proc.host_steal_frac, a diagnostic for reading a run that came out
// slow; it never enters another metric.
func hostCPU() (steal, total float64) {
	data, _ := os.ReadFile("/proc/stat") // absent: the diagnostic reads 0
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if v, err := strconv.ParseFloat(f, 64); err == nil { // field 0 is "cpu"
			total += v
			if i == 8 {
				steal = v
			}
		}
	}
	return steal, total
}

// scrape is one reading of everything the server exports about itself.
// Names the server does not export are simply absent from the maps.
type scrape struct {
	counters map[string]float64 // /v1/metrics counters
	histSum  map[string]float64 // /v1/metrics latencies: sum_ns
	histN    map[string]float64 // /v1/metrics latencies: count
	cache    map[string]float64 // /v1/stats quote_cache
	mem      map[string]float64 // /debug/vars memstats (numeric fields)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *server) scrape() (scrape, error) {
	sc := scrape{counters: map[string]float64{}, histSum: map[string]float64{}, histN: map[string]float64{},
		cache: map[string]float64{}, mem: map[string]float64{}}
	var m struct {
		Counters  map[string]float64 `json:"counters"`
		Latencies map[string]struct {
			Count float64 `json:"count"`
			SumNS float64 `json:"sum_ns"`
		} `json:"latencies"`
	}
	if err := getJSON(s.base+"/v1/metrics", &m); err != nil {
		return sc, err
	}
	sc.counters = m.Counters
	for k, h := range m.Latencies {
		sc.histSum[k], sc.histN[k] = h.SumNS, h.Count
	}
	var st struct {
		QuoteCache map[string]float64 `json:"quote_cache"`
	}
	if err := getJSON(s.base+"/v1/stats", &st); err != nil {
		return sc, err
	}
	sc.cache = st.QuoteCache
	var vars struct {
		Memstats map[string]any `json:"memstats"`
	}
	if err := getJSON(s.base+"/debug/vars", &vars); err != nil {
		return sc, err
	}
	for k, v := range vars.Memstats {
		if f, ok := v.(float64); ok {
			sc.mem[k] = f
		}
	}
	return sc, nil
}

// countingConn counts the bytes a client connection moves, headers
// included, so bytes per op is what actually crossed the socket.
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// dirSize sums the regular files directly under dir.
func dirSize(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
