package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic"
	"robustatomic/internal/obs"
	"robustatomic/internal/persist"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/wire"
)

// scratchRoot holds the durable workload's WAL directories, inside the
// directory the benchmark runs from; each run's directory is removed when
// the cluster closes.
const scratchRoot = ".bench_build"

// fsyncMode is the WAL policy of the durable workload's daemons.
const fsyncMode = persist.FsyncBatch

// env is one started cluster with a prefilled Store.
type env struct {
	cluster *robustatomic.Cluster
	store   *robustatomic.Store
	servers []*tcpnet.Server
	dir     string

	// Instrumentation of the traced run (nil/zero otherwise).
	tracer  *obs.Tracer
	rounds  atomic.Int64 // RoundHook calls
	persist []*timedPersister
}

// timedPersister wraps a daemon's persist engine and times every WAL
// append while on is set.
type timedPersister struct {
	tcpnet.Persister
	on      *atomic.Bool
	mu      sync.Mutex
	appends dist // µs per Append
}

func (p *timedPersister) Append(req wire.Request) error {
	if !p.on.Load() {
		return p.Persister.Append(req)
	}
	t := time.Now()
	err := p.Persister.Append(req)
	d := float64(time.Since(t)) / 1e3
	p.mu.Lock()
	p.appends.add(d)
	p.mu.Unlock()
	return err
}

// setup starts the workload's cluster (daemons, WALs) and prefills every
// key, recording the prefill of history-sampled keys. traced wires the
// Tracer (sampling off until switched on), a round-counting RoundHook and
// the timed persist wrapper, switched by persistOn.
func setup(r *runner, traced bool, persistOn *atomic.Bool) (e *env, err error) {
	w := r.w
	e = &env{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	opts := robustatomic.Options{Faults: faults, Readers: w.Readers, Seed: r.seed}
	if traced {
		e.tracer = obs.NewTracer(traceRing, 0)
		opts.Tracer = e.tracer
		opts.RoundHook = func(string) { e.rounds.Add(1) }
	}
	if w.TCP {
		if err = os.MkdirAll(scratchRoot, 0o755); err != nil {
			return e, err
		}
		if e.dir, err = os.MkdirTemp(scratchRoot, "perfbench-"); err != nil {
			return e, err
		}
		var addrs []string
		for id := 1; id <= 3*faults+1; id++ {
			so := tcpnet.ServerOptions{DataDir: filepath.Join(e.dir, fmt.Sprint(id)), Fsync: fsyncMode}
			if traced {
				eng, oerr := persist.Open(so.DataDir, persist.Options{Mode: fsyncMode})
				if oerr != nil {
					return e, oerr
				}
				tp := &timedPersister{Persister: eng, on: persistOn}
				e.persist = append(e.persist, tp)
				so.Persist = tp
			}
			srv, serr := tcpnet.NewServerWith(id, "127.0.0.1:0", so)
			if serr != nil {
				return e, serr
			}
			e.servers = append(e.servers, srv)
			addrs = append(addrs, srv.Addr())
		}
		e.cluster, err = robustatomic.Connect(addrs, opts)
	} else {
		e.cluster, err = robustatomic.NewCluster(opts)
	}
	if err != nil {
		return e, err
	}
	if e.store, err = e.cluster.NewStore(robustatomic.StoreOptions{Shards: shards}); err != nil {
		return e, err
	}
	return e, prefill(r, e.store)
}

// prefill writes every key's prefill value from 64 concurrent callers, so
// the Store's group commit batches them.
func prefill(r *runner, store *robustatomic.Store) error {
	next := atomic.Int64{}
	var wg sync.WaitGroup
	errs := make(chan error, 64) // one slot per caller
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= r.w.Keys {
					return
				}
				v := prefillValue(k)
				kept, st := r.hist.admit(k, r.now)
				err := store.Put(r.names[k], v)
				en := r.now()
				if kept {
					r.hist.add(k, record{put: true, val: v, start: st, end: en, failed: err != nil})
				}
				if err != nil {
					errs <- fmt.Errorf("prefill %s: %w", r.names[k], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// close stops the cluster and its daemons and removes their WALs.
func (e *env) close() {
	if e.cluster != nil {
		e.cluster.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}
