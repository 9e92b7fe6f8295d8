package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// daemon is one kpad process on a loopback port and an HTTP client for it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after exited is closed
}

// startDaemon starts kpad and returns once /readyz answers 200. A port
// taken between choosing it and kpad binding it makes kpad exit, so
// start-up is retried on a new port.
func startDaemon(bin, logPath string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = tryStart(bin, logPath); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func tryStart(bin, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-max-body", strconv.Itoa(256<<20), "-timeout", "120s")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// kpad must not outlive the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start kpad: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		client: &http.Client{Timeout: 2 * time.Minute},
		exited: make(chan struct{}),
	}
	go func() {
		d.err = cmd.Wait()
		logFile.Close()
		close(d.exited)
	}()
	deadline := time.Now().Add(time.Minute)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("kpad exited during start-up (%v); see %s", d.err, logPath)
		default:
		}
		if resp, err := d.client.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("kpad not ready after a minute")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM, which makes kpad drain and exit, and waits for the
// process; after ten seconds it kills it.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// verdict is the part of a kpad verdict the benchmark checks.
type verdict struct {
	Valid   bool `json:"valid"`
	HoldsAt int  `json:"holdsAt"`
	Points  int  `json:"points"`
}

// reply is kpad's answer for one formula: a verdict or an error.
type reply struct {
	verdict
	err error
}

func (d *daemon) upload(body []byte) error {
	return d.post("/v1/systems", body, http.StatusCreated, nil)
}

// check asks kpad whether f is valid in the system.
func (d *daemon) check(system string, f *formula) reply {
	var r reply
	body, _ := json.Marshal(map[string]string{"system": system, "formula": f.text})
	r.err = d.post("/v1/check", body, http.StatusOK, &r.verdict)
	return r
}

// kpadStats is the part of /v1/stats the per-layer metrics use.
type kpadStats struct {
	Eval struct {
		Evals      uint64 `json:"evals"`
		TotalNanos uint64 `json:"totalNanos"`
	} `json:"eval"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Engine struct {
		ShardRounds uint64 `json:"shardRounds"`
	} `json:"engine"`
	Resilience struct {
		Sheds uint64 `json:"sheds"`
	} `json:"resilience"`
	Pools []struct {
		Created uint64 `json:"created"`
		Reused  uint64 `json:"reused"`
		Resets  uint64 `json:"resets"`
	} `json:"pools"`
}

func (d *daemon) stats() (kpadStats, error) {
	var st kpadStats
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (d *daemon) post(path string, body []byte, want int, out any) error {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
