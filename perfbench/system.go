package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"

	"repro/internal/kvnet"
	"repro/internal/lsm"
	"repro/internal/vfs"
	"repro/kv"
)

// system is the engine under test: one embedded kv.Open partition, or a
// replicated cluster of in-process nodes on loopback TCP behind
// kv.DialCluster.
type system struct {
	eng   kv.Engine // what the clients call
	nodes []*node
}

// node is one cluster member: an engine opened with lsm.Open and the
// options kv.Open would pass, served by a kvnet.Server. Traced, a timing
// wrapper sits between the server and the engine it serves.
type node struct {
	db     *lsm.DB
	srv    *kvnet.Server
	served chan error
}

func (sp spec) openOptions(rec *recorder) []kv.Option {
	var opts []kv.Option
	if sp.memtable > 0 {
		opts = append(opts, kv.WithMemtableBytes(sp.memtable))
	}
	if sp.autoCompact != "" {
		opts = append(opts, kv.WithAutoCompact(sp.autoCompact))
	}
	if rec != nil {
		opts = append(opts, kv.WithFS(timedFS{FS: vfs.Default, rec: rec}))
	}
	return opts
}

// openSystem opens (creating) the engine under test rooted at dir. rec
// is nil for an untraced run.
func openSystem(sp spec, dir string, rec *recorder) (*system, error) {
	if sp.nodes == 0 {
		eng, err := kv.Open(dir, sp.openOptions(rec)...)
		if err != nil {
			return nil, err
		}
		return &system{eng: eng}, nil
	}
	s := &system{}
	addrs := make([]string, sp.nodes)
	for i := range addrs {
		n, addr, err := startNode(filepath.Join(dir, fmt.Sprintf("node%d", i)), rec)
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.nodes = append(s.nodes, n)
		addrs[i] = addr
	}
	eng, err := kv.DialCluster(addrs, kv.WithReplication(3, 2, 2))
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.eng = eng
	return s, nil
}

func startNode(dir string, rec *recorder) (*node, string, error) {
	opts := lsm.Options{}
	if rec != nil {
		opts.FS = timedFS{FS: vfs.Default, rec: rec}
	}
	db, err := lsm.Open(dir, opts)
	if err != nil {
		return nil, "", err
	}
	var served kvnet.Engine = db
	if rec != nil {
		served = timedEngine{Engine: db, rec: rec}
	}
	n := &node{db: db, srv: kvnet.NewServer(served), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", errors.Join(err, db.Close())
	}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, ln.Addr().String(), nil
}

func (n *node) close() error {
	err := n.srv.Close()
	<-n.served
	return errors.Join(err, n.db.Close())
}

func (s *system) close() error {
	var err error
	if s.eng != nil {
		err = s.eng.Close()
	}
	for _, n := range s.nodes {
		err = errors.Join(err, n.close())
	}
	return err
}

// storageStats returns the storage counters: the embedded engine's, or
// their sum over the cluster's nodes.
func (s *system) storageStats(ctx context.Context) (kv.Stats, error) {
	if s.nodes == nil {
		return s.eng.Stats(ctx)
	}
	var sum kv.Stats
	for _, n := range s.nodes {
		sum = combine(sum, statsFromLSM(n.db.Stats()), false)
	}
	return sum, nil
}

// clusterStats returns the router's replication counters, or zeros for
// an embedded engine.
func (s *system) clusterStats(ctx context.Context) (kv.ClusterStats, error) {
	if s.nodes == nil {
		return kv.ClusterStats{}, nil
	}
	st, err := s.eng.Stats(ctx)
	if err != nil || st.Cluster == nil {
		return kv.ClusterStats{}, err
	}
	return *st.Cluster, nil
}

// statsFromLSM maps a node's engine counters into the kv shape,
// for the fields the benchmark reads.
func statsFromLSM(st lsm.Stats) kv.Stats {
	return kv.Stats{
		Tables:               st.Tables,
		TableBytes:           st.TableBytes,
		Flushes:              st.Flushes,
		MinorCompactions:     st.MinorCompactions,
		WriteStalls:          st.WriteStalls,
		WriteStallNanos:      st.WriteStallTime.Nanoseconds(),
		BytesFlushed:         st.BytesFlushed,
		BytesCompacted:       st.BytesCompacted,
		CompactionPicks:      st.CompactionPicks,
		GroupCommits:         st.GroupCommits,
		GroupedWrites:        st.GroupedWrites,
		BlockCacheHits:       st.BlockCacheHits,
		BlockCacheMisses:     st.BlockCacheMisses,
		FilterNegatives:      st.FilterNegatives,
		FilterFalsePositives: st.FilterFalsePositives,
	}
}

// combine returns a+b, or a-b with sub, over the fields statsFromLSM
// fills; Tables and TableBytes are summed but never subtracted, since
// they are levels, not counters.
func combine(a, b kv.Stats, sub bool) kv.Stats {
	op := func(x, y uint64) uint64 {
		if sub {
			return x - y
		}
		return x + y
	}
	iop := func(x, y int64) int64 { return int64(op(uint64(x), uint64(y))) }
	out := a
	if !sub {
		out.Tables += b.Tables
		out.TableBytes += b.TableBytes
	}
	out.Flushes = int(iop(int64(a.Flushes), int64(b.Flushes)))
	out.MinorCompactions = int(iop(int64(a.MinorCompactions), int64(b.MinorCompactions)))
	out.WriteStalls = int(iop(int64(a.WriteStalls), int64(b.WriteStalls)))
	out.WriteStallNanos = iop(a.WriteStallNanos, b.WriteStallNanos)
	out.BytesFlushed = op(a.BytesFlushed, b.BytesFlushed)
	out.BytesCompacted = op(a.BytesCompacted, b.BytesCompacted)
	out.GroupCommits = op(a.GroupCommits, b.GroupCommits)
	out.GroupedWrites = op(a.GroupedWrites, b.GroupedWrites)
	out.BlockCacheHits = op(a.BlockCacheHits, b.BlockCacheHits)
	out.BlockCacheMisses = op(a.BlockCacheMisses, b.BlockCacheMisses)
	out.FilterNegatives = op(a.FilterNegatives, b.FilterNegatives)
	out.FilterFalsePositives = op(a.FilterFalsePositives, b.FilterFalsePositives)
	out.CompactionPicks = map[string]uint64{}
	for name, n := range a.CompactionPicks {
		out.CompactionPicks[name] = n
	}
	for name, n := range b.CompactionPicks {
		out.CompactionPicks[name] = op(out.CompactionPicks[name], n)
	}
	return out
}

// removeAll deletes path and everything under it through vfs.Default.
func removeAll(path string) error {
	entries, err := vfs.Default.ReadDir(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		p := filepath.Join(path, e.Name())
		if e.IsDir() {
			err = removeAll(p)
		} else {
			err = vfs.Default.Remove(p)
		}
		if err != nil {
			return err
		}
	}
	return vfs.Default.Remove(path)
}
