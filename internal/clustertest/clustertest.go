// Package clustertest boots a real multi-process claims cluster — N
// claims-node processes on ephemeral ports, one of them seeding the
// membership plane — and drives it over the HTTP control plane. It is
// the harness behind the cluster-smoke CI job: the only test substrate
// in the repo where "kill a node" means SIGKILL to a real PID and
// "detection latency" includes real TCP, real HTTP polling, and a real
// process death.
//
// The harness builds the claims-node binary once per test run with the
// host go toolchain, scrapes each process's CLAIMS_NODE_READY line for
// its bound addresses (everything listens on :0), and talks JSON to
// the /query, /cluster/view and /metrics endpoints.
package clustertest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// Options configures a harness cluster.
type Options struct {
	// Nodes is the cluster width (process count). Node 0 is the seed.
	Nodes int
	// Rows per table (default 20000).
	Rows int
	// Timing overrides the failure detector (zero fields take the
	// binary's defaults). Tests use fast timings so detection happens
	// in tens of milliseconds, not seconds.
	Timing cluster.Timing
	// Faults is a -faults spec passed to every process (e.g.
	// "delay=5ms" to stretch queries so a kill lands mid-flight).
	Faults string
}

// QueryResult is the decoded /query reply.
type QueryResult struct {
	Columns     []string   `json:"columns"`
	Rows        [][]string `json:"rows"`
	RowCount    int        `json:"row_count"`
	DurationMS  float64    `json:"duration_ms"`
	Coordinator int        `json:"coordinator"`
	DataNodes   []int      `json:"data_nodes"`
	// Analysis is the rendered plan for EXPLAIN [ANALYZE] statements;
	// analyzed distributed queries include the per-node section.
	Analysis string `json:"analysis"`
	// PerNode is the per-participant breakdown of an analyzed query.
	PerNode []telemetry.NodeBreakdown `json:"per_node"`
	Error   string                    `json:"error"`
	// NodeLost names the node whose death failed the query, -1 otherwise.
	NodeLost int `json:"node_lost"`
}

// Failed reports whether the query failed (engine- or transport-level).
func (r *QueryResult) Failed() bool { return r.Error != "" }

// Node is one running (or killed) claims-node process.
type Node struct {
	ID   int
	Addr string // data plane (exchange transport)
	Ctl  string // control plane (HTTP)

	cmd    *exec.Cmd
	waited chan struct{} // closed once the process is reaped
	log    *os.File
}

// Cluster is a running multi-process cluster under test.
type Cluster struct {
	tb      testing.TB
	bin     string
	opts    Options
	dir     string
	seedCtl string
	client  *http.Client

	mu    sync.Mutex
	nodes map[int]*Node
}

var (
	buildOnce sync.Once
	buildErr  error
	builtBin  string
)

// BuildBinary compiles cmd/claims-node once per `go test` invocation
// and returns the binary path.
func BuildBinary(tb testing.TB) string {
	tb.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "clustertest-bin-")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "claims-node")
		cmd := exec.Command("go", "build", "-o", builtBin, "repro/cmd/claims-node")
		cmd.Dir = moduleRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build claims-node: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		tb.Fatal(buildErr)
	}
	return builtBin
}

// moduleRoot locates the repo root from this source file's path, so
// the build works regardless of the test's working directory.
func moduleRoot() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// Start builds the binary, launches opts.Nodes processes (node 0
// seeding), and waits until every member is alive in the seed's view.
// Close runs automatically at test cleanup.
func Start(tb testing.TB, opts Options) *Cluster {
	tb.Helper()
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Rows == 0 {
		opts.Rows = 20000
	}
	c := &Cluster{
		tb:     tb,
		bin:    BuildBinary(tb),
		opts:   opts,
		dir:    tb.TempDir(),
		client: &http.Client{Timeout: 120 * time.Second},
		nodes:  make(map[int]*Node),
	}
	tb.Cleanup(c.Close)
	seed := c.startProcess(0, "")
	c.seedCtl = seed.Ctl
	for id := 1; id < opts.Nodes; id++ {
		c.startProcess(id, c.seedCtl)
	}
	c.WaitAllAlive(30 * time.Second)
	return c
}

// startProcess launches one claims-node, scrapes its READY line, and
// records it. seedCtl == "" makes it the seed.
func (c *Cluster) startProcess(id int, seedCtl string) *Node {
	c.tb.Helper()
	args := []string{"-id", strconv.Itoa(id)}
	if seedCtl == "" {
		args = append(args,
			"-nodes", strconv.Itoa(c.opts.Nodes),
			"-rows", strconv.Itoa(c.opts.Rows))
		if c.opts.Timing.HeartbeatEvery > 0 {
			args = append(args, "-hb", c.opts.Timing.HeartbeatEvery.String())
		}
		if c.opts.Timing.SuspectAfter > 0 {
			args = append(args, "-suspect-after", c.opts.Timing.SuspectAfter.String())
		}
		if c.opts.Timing.DeadAfter > 0 {
			args = append(args, "-dead-after", c.opts.Timing.DeadAfter.String())
		}
	} else {
		args = append(args, "-seed", seedCtl)
	}
	if c.opts.Faults != "" {
		args = append(args, "-faults", c.opts.Faults)
	}

	logPath := filepath.Join(c.dir, fmt.Sprintf("node%d-%d.log", id, time.Now().UnixNano()))
	logf, err := os.Create(logPath)
	if err != nil {
		c.tb.Fatal(err)
	}
	cmd := exec.Command(c.bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		c.tb.Fatal(err)
	}
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		c.tb.Fatal(err)
	}

	n := &Node{ID: id, cmd: cmd, waited: make(chan struct{}), log: logf}
	ready := make(chan [2]string, 1)
	go func() {
		// Mirror stdout into the log and watch for the READY line.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if addr, ctl, ok := parseReadyLine(line); ok && addr != "" {
				select {
				case ready <- [2]string{addr, ctl}:
				default:
				}
			}
		}
	}()
	go func() {
		cmd.Wait() //nolint:errcheck // killed on purpose in tests
		close(n.waited)
	}()

	select {
	case got := <-ready:
		n.Addr, n.Ctl = got[0], got[1]
	case <-n.waited:
		c.tb.Fatalf("node %d exited before READY; log: %s", id, readTail(logPath))
	case <-time.After(60 * time.Second):
		c.tb.Fatalf("node %d: no CLAIMS_NODE_READY within 60s; log: %s", id, readTail(logPath))
	}
	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	return n
}

// parseReadyLine decodes "CLAIMS_NODE_READY id=N addr=H:P ctl=H:P".
func parseReadyLine(line string) (addr, ctl string, ok bool) {
	if !strings.HasPrefix(line, "CLAIMS_NODE_READY ") {
		return "", "", false
	}
	for _, f := range strings.Fields(line)[1:] {
		k, v, found := strings.Cut(f, "=")
		if !found {
			continue
		}
		switch k {
		case "addr":
			addr = v
		case "ctl":
			ctl = v
		}
	}
	return addr, ctl, true
}

func readTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 4096 {
		data = data[len(data)-4096:]
	}
	return string(data)
}

// node returns the record for id, failing the test if unknown.
func (c *Cluster) node(id int) *Node {
	c.tb.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[id]
	if n == nil {
		c.tb.Fatalf("no node %d in the harness", id)
	}
	return n
}

// Running lists ids of processes the harness has not killed, ascending.
func (c *Cluster) Running() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []int
	for id, n := range c.nodes {
		select {
		case <-n.waited:
		default:
			ids = append(ids, id)
		}
	}
	sortInts(ids)
	return ids
}

// Run coordinates sql on node id via POST /query. A transport-level
// failure (process gone) is the returned error; an engine-level
// failure is in QueryResult.Error.
func (c *Cluster) Run(id int, sql string) (*QueryResult, error) {
	n := c.node(id)
	body, _ := json.Marshal(map[string]string{"sql": sql})
	resp, err := c.client.Post("http://"+n.Ctl+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	var qr QueryResult
	if err := json.Unmarshal(data, &qr); err != nil {
		return nil, fmt.Errorf("node %d replied %d: %s", id, resp.StatusCode, bytes.TrimSpace(data))
	}
	return &qr, nil
}

// RunAll coordinates sql once on every running node and returns the
// per-coordinator results, keyed by node id.
func (c *Cluster) RunAll(sql string) (map[int]*QueryResult, error) {
	out := make(map[int]*QueryResult)
	for _, id := range c.Running() {
		qr, err := c.Run(id, sql)
		if err != nil {
			return nil, fmt.Errorf("coordinator %d: %w", id, err)
		}
		out[id] = qr
	}
	return out, nil
}

// Kill delivers SIGKILL to node id and waits until the process is
// reaped — the harness's "pull the plug" primitive.
func (c *Cluster) Kill(id int) {
	c.tb.Helper()
	n := c.node(id)
	if err := n.cmd.Process.Kill(); err != nil {
		c.tb.Fatalf("kill node %d: %v", id, err)
	}
	<-n.waited
}

// Restart launches a fresh process for a previously killed id; it
// re-joins through the seed under a new incarnation.
func (c *Cluster) Restart(id int) {
	c.tb.Helper()
	n := c.node(id)
	select {
	case <-n.waited:
	default:
		c.tb.Fatalf("restart node %d: old process still running", id)
	}
	c.startProcess(id, c.seedCtl)
}

// View fetches the seed's authoritative membership view.
func (c *Cluster) View() (cluster.View, error) {
	return c.getView(c.seedCtl + "/cluster/view")
}

// NodeView fetches node id's own opinion of the membership (its
// agent's last polled view) — what its coordinator decisions use.
func (c *Cluster) NodeView(id int) (cluster.View, error) {
	return c.getView(c.node(id).Ctl + "/view")
}

func (c *Cluster) getView(hostpath string) (cluster.View, error) {
	var v cluster.View
	resp, err := c.client.Get("http://" + hostpath)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// Metrics fetches and returns one node's raw /metrics exposition.
func (c *Cluster) Metrics(id int) (string, error) {
	return c.getText(c.node(id).Ctl + "/metrics")
}

// ClusterMetrics fetches the seed's federated /cluster/metrics
// exposition — every alive member's metrics re-emitted under one
// scrape with node labels.
func (c *Cluster) ClusterMetrics() (string, error) {
	return c.getText(c.seedCtl + "/cluster/metrics")
}

// ClusterQueries fetches the seed's federated /cluster/queries view:
// every alive member's query registry merged, entries tagged by node.
func (c *Cluster) ClusterQueries() (string, error) {
	return c.getText(c.seedCtl + "/cluster/queries")
}

func (c *Cluster) getText(hostpath string) (string, error) {
	resp, err := c.client.Get("http://" + hostpath)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	return string(data), err
}

// WaitState polls the seed view until node id reaches state st.
func (c *Cluster) WaitState(id int, st cluster.State, timeout time.Duration) {
	c.tb.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, err := c.View()
		if err == nil {
			if m, ok := v.Member(id); ok && m.State == st {
				return
			}
		}
		if time.Now().After(deadline) {
			v, _ := c.View()
			c.tb.Fatalf("node %d never reached %v within %v; view: %+v", id, st, timeout, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// WaitViewAlive polls node id's own view until it counts n alive
// members — used to let a survivor observe a death (or a rejoin)
// before coordinating the next query through it.
func (c *Cluster) WaitViewAlive(id, n int, timeout time.Duration) {
	c.tb.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, err := c.NodeView(id)
		if err == nil && len(v.Alive()) == n {
			return
		}
		if time.Now().After(deadline) {
			c.tb.Fatalf("node %d never saw %d alive members within %v; its view: %+v", id, n, timeout, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// WaitAllAlive waits until every configured node is alive in the
// seed's view AND every running node's own view agrees — a node's
// coordinator only fans out to the peers its agent has observed, so
// querying before its view converges would under-fan.
func (c *Cluster) WaitAllAlive(timeout time.Duration) {
	c.tb.Helper()
	deadline := time.Now().Add(timeout)
	for {
		converged := false
		v, err := c.View()
		if err == nil && len(v.Alive()) == c.opts.Nodes {
			converged = true
			for _, id := range c.Running() {
				nv, err := c.NodeView(id)
				if err != nil || len(nv.Alive()) != c.opts.Nodes {
					converged = false
					break
				}
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			c.tb.Fatalf("cluster never fully alive within %v; seed view: %+v", timeout, v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close terminates every remaining process (SIGTERM, then SIGKILL
// after a grace period) and waits for all of them — the harness leaves
// no child behind even when a test fails midway.
func (c *Cluster) Close() {
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.nodes = make(map[int]*Node)
	c.mu.Unlock()
	for _, n := range nodes {
		select {
		case <-n.waited:
			continue
		default:
		}
		n.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	}
	for _, n := range nodes {
		select {
		case <-n.waited:
		case <-time.After(5 * time.Second):
			n.cmd.Process.Kill() //nolint:errcheck
			<-n.waited
		}
		n.log.Close()
	}
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
