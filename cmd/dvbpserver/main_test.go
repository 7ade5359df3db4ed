package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dvbp/internal/cli"
	"dvbp/internal/core"
)

// buildBinary compiles the package at dir into a temp binary once per test.
func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", dir, err, out)
	}
	return bin
}

func buildServer(t *testing.T) string { return buildBinary(t, ".", "dvbpserver") }

// runningServer is one dvbpserver child process plus its captured streams.
type runningServer struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
}

// startServer launches the built binary on addr (may be "127.0.0.1:0") over
// data and waits for the listening line; the bound URL comes from stdout so
// port 0 works.
func startServer(t *testing.T, bin, addr, data string) *runningServer {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-data", data)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	rs := &runningServer{cmd: cmd, stderr: &bytes.Buffer{}}
	cmd.Stderr = rs.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	br := bufio.NewReader(stdout)
	lineCh := make(chan string, 1)
	go func() {
		line, _ := br.ReadString('\n')
		lineCh <- line
		io.Copy(io.Discard, br) // keep the pipe drained
	}()
	select {
	case line := <-lineCh:
		i := strings.Index(line, "http://")
		if i < 0 {
			t.Fatalf("no listening line from dvbpserver: %q\nstderr: %s", line, rs.stderr)
		}
		rs.base = strings.Fields(line[i:])[0]
	case <-time.After(30 * time.Second):
		t.Fatalf("dvbpserver produced no listening line\nstderr: %s", rs.stderr)
	}
	return rs
}

// stop sends sig and returns the exit code.
func (rs *runningServer) stop(t *testing.T, sig os.Signal) int {
	t.Helper()
	if err := rs.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	err := rs.cmd.Wait()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("wait: %v", err)
	return -1
}

// httpJSON performs one request and decodes the JSON response into out (when
// non-nil), returning the status code.
func httpJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// TestServeSmoke is the end-to-end happy path: boot on an ephemeral port,
// create a tenant, place an item, read it back, and drain cleanly on SIGTERM
// with exit 0. `go test -race -run='ServeSmoke|ListPolicySpellings|ServeLoadVerify'
// ./cmd/dvbpserver ./cmd/dvbpbench` runs it with its neighbours.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildServer(t)
	data := t.TempDir()
	rs := startServer(t, bin, "127.0.0.1:0", data)

	if code := httpJSON(t, "GET", rs.base+"/healthz", nil, nil); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if code := httpJSON(t, "GET", rs.base+"/readyz", nil, nil); code != 200 {
		t.Fatalf("readyz: %d", code)
	}
	cfg := map[string]any{"name": "smoke", "dim": 2, "policy": "MoveToFront"}
	if code := httpJSON(t, "POST", rs.base+"/v1/tenants", cfg, nil); code != 201 {
		t.Fatalf("create tenant: %d", code)
	}
	var place struct {
		Item int `json:"item"`
		Bin  int `json:"bin"`
	}
	body := map[string]any{"arrival": 0.0, "departure": 2.0, "size": []float64{0.4, 0.3}}
	if code := httpJSON(t, "POST", rs.base+"/v1/tenants/smoke/place", body, &place); code != 200 {
		t.Fatalf("place: %d", code)
	}
	if place.Item != 0 {
		t.Fatalf("first item acked as %d", place.Item)
	}
	var got struct {
		Total int `json:"total"`
	}
	if code := httpJSON(t, "GET", rs.base+"/v1/tenants/smoke/placements", nil, &got); code != 200 || got.Total != 1 {
		t.Fatalf("placements: code %d total %d", code, got.Total)
	}

	if code := rs.stop(t, syscall.SIGTERM); code != cli.ExitOK {
		t.Fatalf("SIGTERM exit %d, want %d\nstderr: %s", code, cli.ExitOK, rs.stderr)
	}
	if !strings.Contains(rs.stderr.String(), "draining") || !strings.Contains(rs.stderr.String(), "drained") {
		t.Fatalf("drain notices missing from stderr: %s", rs.stderr)
	}

	// Restart over the same data directory: the tenant and its acknowledged
	// placement must be back, identically, before /readyz said so.
	rs2 := startServer(t, bin, "127.0.0.1:0", data)
	if code := httpJSON(t, "GET", rs2.base+"/readyz", nil, nil); code != 200 {
		t.Fatalf("readyz after restart: %d", code)
	}
	var after struct {
		Total      int `json:"total"`
		Placements []struct {
			Item int `json:"item"`
			Bin  int `json:"bin"`
		} `json:"placements"`
	}
	if code := httpJSON(t, "GET", rs2.base+"/v1/tenants/smoke/placements", nil, &after); code != 200 {
		t.Fatalf("placements after restart: %d", code)
	}
	if after.Total != 1 || after.Placements[0].Item != place.Item || after.Placements[0].Bin != place.Bin {
		t.Fatalf("recovered placements %+v do not match acknowledged item=%d bin=%d", after, place.Item, place.Bin)
	}
	if code := rs2.stop(t, syscall.SIGTERM); code != cli.ExitOK {
		t.Fatalf("restarted server SIGTERM exit %d\nstderr: %s", code, rs2.stderr)
	}
}

// TestListPolicySpellingsRoundTrip pins the CLI surface to the engine's
// vocabulary: -list prints exactly core.PolicySpellings, and every printed
// spelling round-trips through the server's create-tenant admission.
func TestListPolicySpellingsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	bin := buildServer(t)
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if want := core.PolicySpellings(); !equalStrings(lines, want) {
		t.Fatalf("-list printed %v, want core.PolicySpellings() = %v", lines, want)
	}

	// Each line is "Spelling | alias | alias (note)"; every spelling outside
	// the note must be accepted verbatim by create-tenant. Placeholders such
	// as HarmonicFit-<K> get a concrete parameter substituted.
	var spellings []string
	for _, line := range lines {
		if i := strings.Index(line, "("); i >= 0 {
			line = line[:i]
		}
		for _, tok := range strings.Split(line, "|") {
			tok = strings.TrimSpace(tok)
			tok = strings.ReplaceAll(tok, "<K>", "4")
			tok = strings.ReplaceAll(tok, "<p>", "2")
			if tok != "" {
				spellings = append(spellings, tok)
			}
		}
	}

	rs := startServer(t, bin, "127.0.0.1:0", t.TempDir())
	for i, spelling := range spellings {
		cfg := map[string]any{"name": fmt.Sprintf("p%d", i), "dim": 2, "policy": spelling, "seed": 1}
		if code := httpJSON(t, "POST", rs.base+"/v1/tenants", cfg, nil); code != 201 {
			t.Fatalf("spelling %q from -list refused by create-tenant: %d", spelling, code)
		}
	}
	if code := httpJSON(t, "POST", rs.base+"/v1/tenants",
		map[string]any{"name": "bogus", "dim": 2, "policy": "NoSuchFit"}, nil); code != 400 {
		t.Fatalf("bogus policy: %d, want 400", code)
	}
	if code := rs.stop(t, syscall.SIGTERM); code != cli.ExitOK {
		t.Fatalf("SIGTERM exit %d\nstderr: %s", code, rs.stderr)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// freeAddr reserves an ephemeral port and releases it, so a restarted server
// can reuse the same address.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestSIGKILLRestartUnderLoad is the process-level torture: dvbpbench
// -serve-load drives several tenants while the server is SIGKILLed mid-load
// and restarted on the same address and data directory. The load driver
// rides through the outage on retries and must finish cleanly; -serve-verify
// then audits that every acknowledgement handed out — before or after the
// kill — names a placement the restarted server still serves identically.
func TestSIGKILLRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	srvBin := buildServer(t)
	benchBin := buildBinary(t, "../dvbpbench", "dvbpbench")
	data := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr
	acks := filepath.Join(t.TempDir(), "acks.jsonl")

	rs := startServer(t, srvBin, addr, data)

	load := exec.Command(benchBin,
		"-serve-load", base, "-serve-acks", acks,
		"-serve-tenants", "3", "-serve-items", "200", "-seed", "7")
	var loadOut bytes.Buffer
	load.Stdout, load.Stderr = &loadOut, &loadOut
	if err := load.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		load.Process.Kill()
		load.Wait()
	}()

	// Let the driver get a meaningful way in, then kill without ceremony.
	waitForAcks(t, acks, 60)
	rs.cmd.Process.Kill()
	rs.cmd.Wait()

	rs2 := startServer(t, srvBin, addr, data)
	if err := load.Wait(); err != nil {
		t.Fatalf("load driver failed across the restart: %v\n%s", err, &loadOut)
	}
	if !strings.Contains(loadOut.String(), "acknowledgements across 3 tenants") {
		t.Fatalf("load driver summary missing:\n%s", &loadOut)
	}

	verify := exec.Command(benchBin, "-serve-verify", base, "-serve-acks", acks)
	out, err := verify.CombinedOutput()
	if err != nil {
		t.Fatalf("serve-verify failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "intact") {
		t.Fatalf("serve-verify did not report success:\n%s", out)
	}

	if code := rs2.stop(t, syscall.SIGTERM); code != cli.ExitOK {
		t.Fatalf("restarted server SIGTERM exit %d\nstderr: %s", code, rs2.stderr)
	}
}

// waitForAcks blocks until the acks file holds at least n lines.
func waitForAcks(t *testing.T, path string, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil {
			if bytes.Count(data, []byte{'\n'}) >= n {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("acks file %s never reached %d lines", path, n)
}
