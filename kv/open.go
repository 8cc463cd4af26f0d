package kv

import (
	"fmt"

	"repro/internal/store"
)

// Open opens (creating if necessary) an embedded engine rooted at dir: a
// store of independent LSM shards with the key space hash-partitioned
// over them. With WithShards(n), n > 1, shard i lives in dir/shard-NNN
// under a SHARDS marker that fixes the count. With n <= 1 on a directory
// without a marker, the engine is a single shard rooted at dir itself —
// the layout of a bare LSM partition, so pre-façade directories open
// unchanged. A directory that already holds a sharded store is adopted at
// its persisted shard count when no explicit count is given; a
// conflicting count, or n > 1 over an unsharded directory holding data,
// is refused.
func Open(dir string, opts ...Option) (Engine, error) {
	cfg := defaultConfig(entryOpen)
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(dir, store.Options{Shards: cfg.shards, Options: cfg.lsmOptions()})
	if err != nil {
		return nil, err
	}
	eng := &localEngine{st: st, cfg: cfg}
	if cfg.statsAddr != "" {
		stats, err := startStatsServer(cfg.statsAddr, eng)
		if err != nil {
			st.Close()
			return nil, err
		}
		eng.stats = stats
	}
	return eng, nil
}

// Dial connects to a server at addr (see NewServer and cmd/lsmserver) and
// returns an Engine speaking the kvnet protocol to it. The remote engine
// pipelines concurrent requests over one connection; a request cancelled
// after it reached the connection closes it (the other requests in flight
// on it fail too) and the engine transparently re-dials on the next
// operation.
func Dial(addr string, opts ...Option) (Engine, error) {
	cfg := defaultConfig(entryDial)
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if addr == "" {
		return nil, fmt.Errorf("kv: empty address: %w", ErrConfig)
	}
	eng, err := newRemoteEngine(cfg, addr)
	if err != nil {
		return nil, err
	}
	if cfg.statsAddr != "" {
		stats, err := startStatsServer(cfg.statsAddr, eng)
		if err != nil {
			eng.Close()
			return nil, err
		}
		eng.stats = stats
	}
	return eng, nil
}
