package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one tempod child process. It runs with tempod's shipped
// defaults apart from -addr (a free loopback port) and, for durable
// workloads, -data.
type server struct {
	bin  string
	addr string
	data string
	cmd  *exec.Cmd
	// exited closes once the process has been reaped.
	exited chan struct{}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches tempod and waits until /v1/readyz answers 200.
func startServer(bin, data string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("reserving a port: %w", err)
	}
	s := &server{bin: bin, addr: addr, data: data}
	return s, s.start()
}

// start (re)launches the process on the server's address and data dir.
func (s *server) start() error {
	args := []string{"-addr", s.addr}
	if s.data != "" {
		args = append(args, "-data", s.data)
	}
	s.cmd = exec.Command(s.bin, args...)
	s.cmd.Stdout = nil // tempod's banner lines are not needed
	s.cmd.Stderr = os.Stderr
	// tempod must not outlive the benchmark, however the benchmark ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("starting tempod: %w", err)
	}
	s.exited = make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // a killed process always reports an error
		close(s.exited)
	}()
	if err := s.waitReady(60 * time.Second); err != nil {
		s.kill()
		return err
	}
	return nil
}

func (s *server) url() string { return "http://" + s.addr }

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitReady polls /v1/readyz until it answers 200. Each probe uses a fresh
// connection so a listener that is not up yet costs one refused dial.
func (s *server) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(s.url() + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return errors.New("tempod exited before becoming ready")
		case <-time.After(200 * time.Microsecond):
		}
	}
	return fmt.Errorf("tempod not ready after %v", timeout)
}

// kill sends SIGKILL and waits for the process to end. Safe to call twice.
func (s *server) kill() {
	if s.exited == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	<-s.exited
}

// clockTicks is USER_HZ, the unit of the utime/stime fields in
// /proc/<pid>/stat. Linux fixes it at 100 for every architecture's ABI.
const clockTicks = 100

// procCPU returns the process's user+system CPU time from /proc/<pid>/stat
// (pid 0 means the calling process), summed over all its threads.
func procCPU(pid int) (time.Duration, error) {
	path := "/proc/self/stat"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/stat"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseStatCPU(raw)
}

// parseStatCPU extracts utime+stime from one /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(raw []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(raw, ')')
	if end < 0 {
		return 0, errors.New("proc stat: no command-name terminator")
	}
	// After ')' come fields 3 (state) onward; utime and stime are fields 14
	// and 15, so indices 11 and 12 here.
	f := strings.Fields(string(raw[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns the process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM finds the "VmHWM:  <n> kB" line of a /proc/<pid>/status file.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
