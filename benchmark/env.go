package main

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/sse"
	"repro/internal/tpch"
)

// env is one set-up system under test: the engine hosted in this
// process, served on a loopback socket, with the client connections
// dialled and the statement table checked against its oracle.
type env struct {
	w       *workload
	cluster *engine.Cluster
	srv     *server.Server
	psrv    *protocol.Server
	conns   []*client.Conn
	gen     *generator

	loadRows int64
	loadDur  time.Duration
	warmDur  time.Duration // the warm-up's share of the set-up
}

// close releases everything setup acquired, clients first so the
// server's handlers see EOF, then the listener, then the cluster's
// sockets and scheduler. It is safe on a partly built env and twice.
func (e *env) close() {
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if e.psrv != nil {
		e.psrv.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
}

// buildCluster creates and loads a cluster over the workload's data.
// The serving cluster is the common shape every workload is measured
// on; the reference cluster is static pipelining on the in-process
// fabric with no fast path, used once to compute expected replies.
func buildCluster(w *workload, serving bool, sf float64) (c *engine.Cluster, rows int64, load time.Duration, err error) {
	cat := catalog.New(dataNodes)
	if w.tpch {
		tpch.RegisterTables(cat, sf)
	} else {
		sse.RegisterTables(cat, sseRows)
	}
	cfg := engine.Config{Nodes: dataNodes, CoresPerNode: coresPerNode, Mode: engine.SP, FixedParallelism: coresPerNode}
	if serving {
		cfg = engine.Config{Nodes: dataNodes, CoresPerNode: coresPerNode, Mode: engine.EP, FastPath: true}
	}
	if serving && w.tcp {
		if c, err = engine.NewClusterTCP(cfg, cat); err != nil {
			return nil, 0, 0, err
		}
	} else {
		c = engine.NewCluster(cfg, cat)
	}
	t0 := time.Now()
	if w.tpch {
		err = tpch.Load(c, sf, dataSeed)
	} else {
		err = sse.Load(c, sse.GenConfig{Rows: sseRows, Seed: dataSeed})
	}
	load = time.Since(t0)
	if err != nil {
		c.Close()
		return nil, 0, 0, err
	}
	for _, name := range cat.Names() {
		if t, lerr := cat.Lookup(name); lerr == nil {
			rows += t.Stats.Rows
		}
	}
	return c, rows, load, nil
}

// references computes the expected replies on the reference cluster:
// the per-key table for the lookup workloads, one checksum per
// statement id for the analytic ones.
func references(w *workload, seed int64, sf float64) (*generator, error) {
	ref, _, _, err := buildCluster(w, false, sf)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	if w.tpch {
		refs := make(map[string]check, len(w.ids))
		for _, id := range w.ids {
			res, err := ref.Run(analyticSQL[id])
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", id, err)
			}
			refs[id] = checkOf(res)
		}
		return newAnalyticGenerator(w, refs), nil
	}
	res, err := ref.Run(keyTableSQL)
	if err != nil {
		return nil, fmt.Errorf("reference key table: %w", err)
	}
	table := make(map[int64]keyAgg)
	for _, r := range res.Rows() {
		table[r[0].I] = keyAgg{cnt: r[1].I, acct: r[2].I, time: r[3].I, price: r[4].F, vol: r[5].F}
	}
	return newLookupGenerator(w, seed, table)
}

// setup builds everything a run needs before its first timed
// statement.
func setup(w *workload, seed int64, sf float64) (e *env, err error) {
	e = &env{w: w}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.cluster, e.loadRows, e.loadDur, err = buildCluster(w, true, sf); err != nil {
		return nil, err
	}
	if e.gen, err = references(w, seed, sf); err != nil {
		return nil, err
	}
	e.srv = server.New(e.cluster, server.Config{MaxInflight: maxInflight})
	if e.psrv, err = protocol.Serve("127.0.0.1:0", e.srv); err != nil {
		return nil, err
	}
	for i := 0; i < w.conns; i++ {
		c, err := client.Dial(e.psrv.Addr())
		if err != nil {
			return nil, err
		}
		e.conns = append(e.conns, c)
		if w.prepared {
			if _, err := c.Prepare("lookup", lookupSQL+"$1"); err != nil {
				return nil, fmt.Errorf("prepare: %w", err)
			}
		}
	}
	return e, nil
}
