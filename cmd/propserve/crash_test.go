package main

// Process-level crash-recovery golden test: build the real propserve
// binary, run it against a journal, SIGKILL it mid-burst, restart it on
// the same journal, and require (a) every accepted job reaches a
// terminal state and (b) every result is byte-identical to an
// uninterrupted reference run once the elapsed_ms timing field is
// stripped.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"prop/internal/jobs"
)

// buildPropserve compiles the binary once per test run.
func buildPropserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "propserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// serveProc is a running propserve child process.
type serveProc struct {
	cmd        *exec.Cmd
	url        string
	logs       *logBuf
	readerDone chan struct{}
}

// wait drains stderr to EOF before reaping the process: calling
// cmd.Wait while the reader goroutine is mid-read would close the pipe
// under it and drop the final log lines ("drained cleanly" among them).
func (p *serveProc) wait() error {
	<-p.readerDone
	return p.cmd.Wait()
}

type logBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuf) add(line string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.WriteString(line)
	l.b.WriteByte('\n')
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startPropserve launches the binary on a free port and waits for its
// "listening on" banner to learn the address. Stderr keeps draining into
// logs for the life of the process.
func startPropserve(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, logs: &logBuf{}, readerDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.readerDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			p.logs.add(line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	select {
	case addr := <-addrCh:
		p.url = "http://" + addr
	case <-time.After(15 * time.Second):
		t.Fatalf("propserve did not announce a listen address; logs:\n%s", p.logs)
	}
	return p
}

// crashJob is one deterministic job in the golden matrix.
type crashJob struct {
	tenant string
	seed   int
}

var crashMatrix = []crashJob{
	{"acme", 1}, {"globex", 2}, {"acme", 3}, {"globex", 4}, {"acme", 5}, {"globex", 6},
}

// submitCrashJobs posts the golden job matrix and returns the ids in
// submission order.
func submitCrashJobs(t *testing.T, baseURL string, netlist []byte) []string {
	t.Helper()
	ids := make([]string, 0, len(crashMatrix))
	for _, cj := range crashMatrix {
		url := fmt.Sprintf("%s/v1/jobs?algo=prop&runs=12&seed=%d", baseURL, cj.seed)
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(netlist))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", cj.tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("submit status %d: %s", resp.StatusCode, body)
		}
		ids = append(ids, decodeBody[map[string]string](t, resp)["id"])
	}
	return ids
}

// waitProcJobTerminal polls the child server until the job is terminal.
func waitProcJobTerminal(t *testing.T, baseURL, id string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err == nil && resp.StatusCode == http.StatusOK {
			v := decodeBody[jobView](t, resp)
			if v.State.Terminal() {
				return v
			}
		} else if resp != nil {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %s", id, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// canonicalResult strips the nondeterministic elapsed_ms field and
// re-marshals with sorted keys, so byte comparison means "same answer".
func canonicalResult(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad result %s: %v", raw, err)
	}
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestCrashRecoverySIGKILLGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binary")
	}
	bin := buildPropserve(t)
	netlist := netlistJSON(t, 1200, 1350, 4500, 21)

	// Reference: an uninterrupted run of the full matrix, then a clean
	// SIGTERM shutdown (which must log "drained cleanly" and exit 0).
	refDir := filepath.Join(t.TempDir(), "journal")
	ref := startPropserve(t, bin, "-journal", refDir, "-sched-workers", "1")
	refIDs := submitCrashJobs(t, ref.url, netlist)
	want := make(map[string]string, len(refIDs)) // id -> canonical result
	for _, id := range refIDs {
		v := waitProcJobTerminal(t, ref.url, id, 2*time.Minute)
		if v.State != jobs.Done {
			t.Fatalf("reference job %s ended %q (%s)", id, v.State, v.Error)
		}
		want[id] = canonicalResult(t, v.Result)
	}
	if err := ref.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := ref.wait(); err != nil {
		t.Fatalf("reference shutdown: %v; logs:\n%s", err, ref.logs)
	}
	if !strings.Contains(ref.logs.String(), "drained cleanly") {
		t.Fatalf("reference run did not drain cleanly; logs:\n%s", ref.logs)
	}

	// Crash run: same matrix on a single worker, SIGKILL as soon as the
	// first job finishes — later jobs are mid-run or still queued.
	crashDir := filepath.Join(t.TempDir(), "journal")
	victim := startPropserve(t, bin, "-journal", crashDir, "-sched-workers", "1")
	ids := submitCrashJobs(t, victim.url, netlist)
	waitProcJobTerminal(t, victim.url, ids[0], 2*time.Minute)
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.wait()

	// Restart on the same journal: every accepted job must reach a
	// terminal Done state with the reference answer.
	revived := startPropserve(t, bin, "-journal", crashDir, "-sched-workers", "1")
	recovered := 0
	for i, id := range ids {
		v := waitProcJobTerminal(t, revived.url, id, 3*time.Minute)
		if v.State != jobs.Done {
			t.Errorf("job %s after crash recovery: state %q (%s)", id, v.State, v.Error)
			continue
		}
		if v.Requeued > 0 {
			recovered++
		}
		got := canonicalResult(t, v.Result)
		if got != want[refIDs[i]] {
			t.Errorf("job %s result diverged after crash recovery:\n got %s\nwant %s",
				id, got, want[refIDs[i]])
		}
	}
	// The kill landed mid-burst, so at least one job must have gone
	// through the requeue path (and the pre-crash job must not have).
	if recovered == 0 {
		t.Error("no job was requeued — the crash landed after the whole burst finished")
	}
	first := waitProcJobTerminal(t, revived.url, ids[0], time.Minute)
	if first.Requeued != 0 {
		t.Errorf("job %s finished before the crash but was requeued %d times", ids[0], first.Requeued)
	}

	// Journal stays replayable: one more restart serves the same states.
	if err := revived.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := revived.wait(); err != nil {
		t.Fatalf("revived shutdown: %v; logs:\n%s", err, revived.logs)
	}
	third := startPropserve(t, bin, "-journal", crashDir, "-sched-workers", "1")
	for i, id := range ids {
		v := waitProcJobTerminal(t, third.url, id, time.Minute)
		if v.State != jobs.Done {
			t.Errorf("job %s on third boot: state %q", id, v.State)
			continue
		}
		if got := canonicalResult(t, v.Result); got != want[refIDs[i]] {
			t.Errorf("job %s result changed on third boot", id)
		}
	}
}

// TestMainHelpExits smoke-tests flag wiring: bad flags exit non-zero.
func TestMainBadFlagExits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server binary")
	}
	bin := buildPropserve(t)
	cmd := exec.Command(bin, "-log-level", "nope")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() == 0 {
		t.Fatalf("bad -log-level: err %v, out %s", err, out)
	}
	if !bytes.Contains(out, []byte("log-level")) {
		t.Errorf("error output %q does not mention the flag", out)
	}
}

// TestProcessDrainUnderLoad exercises the signal path while a job is in
// flight: SIGTERM mid-job, the process waits for it and exits 0, and the
// finished result is durable on the next boot.
func TestProcessDrainUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server binary")
	}
	bin := buildPropserve(t)
	netlist := netlistJSON(t, 1200, 1350, 4500, 21)
	dir := filepath.Join(t.TempDir(), "journal")
	p := startPropserve(t, bin, "-journal", dir, "-sched-workers", "1", "-drain-timeout", "2m")

	url := p.url + "/v1/jobs?algo=prop&runs=12&seed=42"
	resp, err := http.Post(url, "application/json", bytes.NewReader(netlist))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	id := decodeBody[map[string]string](t, resp)["id"]

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.wait(); err != nil {
		t.Fatalf("drain exit: %v; logs:\n%s", err, p.logs)
	}
	if !strings.Contains(p.logs.String(), "drained cleanly") {
		t.Fatalf("missing 'drained cleanly'; logs:\n%s", p.logs)
	}

	p2 := startPropserve(t, bin, "-journal", dir)
	v := waitProcJobTerminal(t, p2.url, id, time.Minute)
	if v.State != jobs.Done || len(v.Result) == 0 {
		t.Fatalf("job after drain+restart = state %q, %d result bytes", v.State, len(v.Result))
	}
}

// TestSIGTERMRightAfterAnnounceDrains sends SIGTERM the moment the
// "listening on" line is read. The signal handler must already be in
// place by then, so every attempt exits 0 through the drain path rather
// than dying on the default SIGTERM action. The window is microseconds
// wide, so the attempt is repeated.
func TestSIGTERMRightAfterAnnounceDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server binary")
	}
	bin := buildPropserve(t)
	for i := 0; i < 40; i++ {
		p := startPropserve(t, bin)
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := p.wait(); err != nil {
			t.Fatalf("attempt %d: exit %v; logs:\n%s", i, err, p.logs)
		}
		if !strings.Contains(p.logs.String(), "drained cleanly") {
			t.Fatalf("attempt %d: missing 'drained cleanly'; logs:\n%s", i, p.logs)
		}
	}
}
