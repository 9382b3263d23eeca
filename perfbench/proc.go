package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// served is a running smtserved child process.
type served struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on
	done chan error
}

// startServed launches smtserved on a loopback port and returns once it
// prints its listening line: by then it has built its tenants, scheduler and
// engine and warm-started its references.
func startServed(ctx context.Context, bin string, args ...string) (*served, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-log-level", "error"}, args...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start smtserved: %w", err)
	}
	s := &served{cmd: cmd, done: make(chan error, 1)}
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "smtserved listening on "); ok {
			s.addr, _, _ = strings.Cut(rest, " ")
			break
		}
	}
	if s.addr == "" {
		cmd.Process.Kill()
		return nil, fmt.Errorf("smtserved exited before listening: %v", cmd.Wait())
	}
	go func() {
		// Keep draining stdout so the child never blocks on a full pipe; the
		// pipe closes when it exits.
		io.Copy(io.Discard, stdout)
		s.done <- cmd.Wait()
	}()
	return s, nil
}

func (s *served) url() string { return "http://" + s.addr }

// peakRSSMB is the child's peak resident set so far.
func (s *served) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// stop sends SIGTERM (smtserved drains and exits) and waits for the exit.
func (s *served) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		return errors.Join(errors.New("smtserved did not drain within 15s"), <-s.done)
	}
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, base string) error {
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// peakRSSMB reads VmHWM from a /proc status file.
func peakRSSMB(statusFile string) (float64, error) {
	b, err := os.ReadFile(statusFile)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusFile)
}

// resetSelfPeakRSS returns freed heap to the OS and restarts this process's
// peak-RSS counter, so the next reading covers only what follows.
func resetSelfPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func selfPeakRSSMB() (float64, error) { return peakRSSMB("/proc/self/status") }

// storeDigest hashes a store's two files; it is how runs of one seed, a fleet
// and a local campaign are compared byte for byte.
func storeDigest(dir string) (results, refs string, err error) {
	if results, err = fileDigest(filepath.Join(dir, "results.ndjson")); err != nil {
		return "", "", err
	}
	refs, err = fileDigest(filepath.Join(dir, "refs.ndjson"))
	return results, refs, err
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
