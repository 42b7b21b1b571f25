package main

import (
	"bytes"
	"fmt"
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

// setupTimeout bounds spawn → first 200 on /healthz.
const setupTimeout = 60 * time.Second

// buildInkserve compiles the shipping server from the checkout at root into
// buildDir and returns the binary's path.
func buildInkserve(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "inkserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/inkserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ./cmd/inkserve in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// server is one inkserve child process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	setup  time.Duration // spawn → first 200 on /healthz
	exited chan struct{} // closed once the child has been reaped
}

// startServer spawns bin on a free loopback port with args and waits until
// /healthz answers 200. The child runs in its own process group so stop
// also reaches anything it starts.
func startServer(bin string, args []string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed child carries no news
		close(s.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(t0)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("inkserve exited during set-up; stderr:\n%s", s.stderr.String())
		default:
		}
		if time.Since(t0) > setupTimeout {
			s.stop()
			return nil, fmt.Errorf("inkserve did not answer /healthz within %v; stderr:\n%s", setupTimeout, s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the child's process group and waits until it is reaped.
func (s *server) stop() {
	_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-s.exited
}

// cpuSeconds returns the child's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	return procCPUSeconds(s.cmd.Process.Pid)
}

// procCPUSeconds reads utime+stime of pid from /proc. The kernel reports
// them in USER_HZ ticks, which is 100 on every Linux architecture.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after its ')'.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMiB returns the child's resident-set high-water mark.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
