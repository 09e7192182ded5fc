package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"parblockchain/internal/clustercfg"
	"parblockchain/internal/cryptoutil"
	"parblockchain/internal/oxii"
	"parblockchain/internal/persist"
	"parblockchain/internal/transport"
	"parblockchain/internal/types"
)

var registerWire sync.Once

// buildParnode compiles cmd/parnode into dir and returns the binary's
// path and how long the build took. It runs once per process, before any
// set-up is timed.
func buildParnode(dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "parnode")
	start := time.Now()
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/parnode")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building parnode: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them. Another process could take one before the node binds it; the
// node then fails to start and set-up reports it.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	defer func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// tcpCluster is six parnode processes on loopback TCP plus a client
// endpoint in this process. The client is an ordinary oxii.Client whose
// commit router is fed from the observer's CommitNotifyMsg stream.
type tcpCluster struct {
	dir     string // run directory: config, logs, node data
	cfg     clustercfg.Config
	procs   []*exec.Cmd
	ep      *transport.TCPEndpoint
	cl      *oxii.Client
	router  *oxii.CommitRouter
	recvEnd chan struct{} // closed when the notification pump exits
}

// startTCP writes the cluster config under dir, starts the nodes and
// connects the client. ops also gives every node an ops server (which
// turns on the executors' block tracer); only the traced pass does that.
func startTCP(s spec, parnode, dir string, ops bool) (*tcpCluster, error) {
	registerWire.Do(func() { transport.RegisterWireTypes(&types.CommitNotifyMsg{}) })
	orderers, executors := nodeIDs("o", numOrderers), nodeIDs("e", numExecutors)
	nodes := append(append([]types.NodeID{}, orderers...), executors...)
	addrs, err := freeAddrs(2*len(nodes) + 1)
	if err != nil {
		return nil, err
	}
	c := &tcpCluster{dir: dir, recvEnd: make(chan struct{})}
	c.cfg = clustercfg.Config{
		Orderers:        map[string]string{},
		Executors:       map[string]string{},
		Clients:         map[string]string{"c1": addrs[len(nodes)]},
		Apps:            map[string][]string{},
		Observer:        string(executors[0]),
		BlockTxns:       blockTxns,
		BlockIntervalMs: blockIntervalMs,
		DataDir:         filepath.Join(dir, "data"),
		Crypto:          true,
		Genesis:         genesisBalances(s),
	}
	for i, id := range nodes {
		if i < numOrderers {
			c.cfg.Orderers[string(id)] = addrs[i]
		} else {
			c.cfg.Executors[string(id)] = addrs[i]
		}
		if ops {
			if c.cfg.OpsAddrs == nil {
				c.cfg.OpsAddrs = map[string]string{}
			}
			c.cfg.OpsAddrs[string(id)] = addrs[len(nodes)+1+i]
		}
	}
	for app, agents := range agentsOf(s) {
		for _, a := range agents {
			c.cfg.Apps[string(app)] = append(c.cfg.Apps[string(app)], string(a))
		}
	}
	raw, err := json.Marshal(&c.cfg)
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		return nil, err
	}

	c.ep, err = transport.NewTCPEndpoint(transport.TCPConfig{
		ID:         "c1",
		ListenAddr: c.cfg.Clients["c1"],
		Peers:      c.cfg.AddrBook(),
	})
	if err != nil {
		return nil, err
	}
	c.router = oxii.NewCommitRouter()
	c.cl = oxii.NewClient("c1", c.ep, cryptoutil.DeterministicKeyPair("c1"), orderers, c.router)
	go c.pumpNotifications()

	for _, id := range nodes {
		logFile, err := os.Create(filepath.Join(dir, string(id)+".log"))
		if err != nil {
			c.kill()
			return nil, err
		}
		cmd := exec.Command(parnode, "-config", cfgPath, "-id", string(id))
		cmd.Stdout, cmd.Stderr = logFile, logFile
		err = cmd.Start()
		logFile.Close() // the child holds its own descriptor
		if err != nil {
			c.kill()
			return nil, fmt.Errorf("starting %s: %w", id, err)
		}
		c.procs = append(c.procs, cmd)
	}
	return c, nil
}

// pumpNotifications resolves the client's waiters from the observer's
// commit notifications, the way the in-process commit hook does.
func (c *tcpCluster) pumpNotifications() {
	defer close(c.recvEnd)
	resolve := c.router.Hook()
	for msg := range c.ep.Recv() {
		if n, ok := msg.Payload.(*types.CommitNotifyMsg); ok {
			resolve(nil, []types.TxResult{{TxID: n.TxID, Aborted: n.Aborted, AbortReason: n.AbortReason}})
		}
	}
}

func (c *tcpCluster) client() submitter { return c.cl }

func (c *tcpCluster) children() []int {
	pids := make([]int, len(c.procs))
	for i, p := range c.procs {
		pids[i] = p.Process.Pid
	}
	return pids
}

// signalAndWait sends sig to every node still running and waits for all
// of them to exit, killing whatever is left after the grace period.
func (c *tcpCluster) signalAndWait(sig syscall.Signal, grace time.Duration) {
	for _, p := range c.procs {
		_ = p.Process.Signal(sig) // an already-exited node is fine
	}
	done := make(chan struct{})
	go func() {
		for _, p := range c.procs {
			_ = p.Wait() // exit status is irrelevant; only that it ended
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		for _, p := range c.procs {
			_ = p.Process.Kill()
		}
		<-done
	}
	c.procs = nil
}

// kill tears the cluster down without caring about its data.
func (c *tcpCluster) kill() {
	c.signalAndWait(syscall.SIGKILL, time.Second)
	c.closeClient()
}

func (c *tcpCluster) discard() {
	c.kill()
	os.RemoveAll(c.dir)
}

// height is not readable from outside a node without its ops server.
func (c *tcpCluster) height() uint64 { return 0 }

func (c *tcpCluster) closeClient() {
	c.ep.Close()
	<-c.recvEnd
	c.router.Shutdown()
}

// stop lets the executors settle, terminates the nodes cleanly and
// recovers every executor's state from its data directory, timing the
// observer's recovery.
func (c *tcpCluster) stop() (replicas []replica, recoverObserver time.Duration, err error) {
	time.Sleep(300 * time.Millisecond) // the non-observers finalize the last block
	c.signalAndWait(syscall.SIGTERM, 10*time.Second)
	c.closeClient()
	for i, id := range nodeIDs("e", numExecutors) {
		start := time.Now()
		mgr, rec, err := persist.Open(persist.Config{
			Dir:  c.cfg.NodeDataDir(id),
			Logf: func(string, ...any) {},
		}, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("recovering %s: %w%s", id, err, c.logTail(string(id)))
		}
		if i == 0 {
			recoverObserver = time.Since(start)
		}
		replicas = append(replicas, replica{name: string(id), stateHash: rec.Store.Hash(), ledger: rec.Ledger})
		if err := mgr.Close(); err != nil {
			return nil, 0, fmt.Errorf("closing %s's recovered data: %w", id, err)
		}
		rec.Store.Close() // in-memory backend: nothing to release, nothing to fail
	}
	return replicas, recoverObserver, nil
}

// logTail returns the end of a node's log, for error messages.
func (c *tcpCluster) logTail(id string) string {
	raw, err := os.ReadFile(filepath.Join(c.dir, id+".log"))
	if err != nil || len(raw) == 0 {
		return ""
	}
	if len(raw) > 600 {
		raw = raw[len(raw)-600:]
	}
	return "\n--- " + id + ".log ---\n" + string(raw)
}

// scrape fetches one ops endpoint of a node.
func (c *tcpCluster) scrape(id, path string) (string, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + c.cfg.OpsAddrs[id] + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s%s: %s", id, path, resp.Status)
	}
	return string(body), nil
}

// halted scrapes every executor's /statusz and reports the first one
// that stopped making protocol progress after a fault-model violation.
func (c *tcpCluster) halted() error {
	for _, id := range nodeIDs("e", numExecutors) {
		body, err := c.scrape(string(id), "/statusz")
		if err != nil {
			return err
		}
		var status struct {
			Height uint64 `json:"height"`
			Halted bool   `json:"halted"`
		}
		if err := json.Unmarshal([]byte(body), &status); err != nil {
			return fmt.Errorf("%s/statusz: %w", id, err)
		}
		if status.Halted {
			return fmt.Errorf("executor %s halted at height %d", id, status.Height)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a file vanishing mid-walk only makes the sum smaller
	})
	return total
}
