package robustatomic

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustatomic/internal/obs"
	"robustatomic/internal/tcpnet"
)

// TestStoreGetElidedRounds pins the adaptive read's fast case: on a stable
// shard (last write complete on a full quorum) a Get is exactly the two
// query rounds — the write-back the paper's worst-case read needs is
// certified redundant by the queries themselves and elided.
func TestStoreGetElidedRounds(t *testing.T) {
	st, rounds, _ := countingStore(t, 41)
	if err := st.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		atomic.StoreInt64(rounds, 0)
		v, err := st.Get("k")
		if err != nil || v != "v" {
			t.Fatalf("Get %d = %q, %v; want v", i, v, err)
		}
		if got := atomic.LoadInt64(rounds); got != 2 {
			t.Fatalf("stable Get %d took %d rounds, want 2 (write-back elided)", i, got)
		}
	}
}

// TestStoreGetFallbackOnIncompleteWrite pins the worst case Proposition 1
// proves necessary: when the queried quorum cannot certify the decided
// write as complete, the Get pays the full 4 rounds (2 queries + the
// 2-round write-back) — and a later Get against a recovered quorum earns
// the elision back.
func TestStoreGetFallbackOnIncompleteWrite(t *testing.T) {
	st, rounds, _ := countingStore(t, 42)
	c := st.c
	if err := st.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	// v2 lands on {1,2,3} only; the read then quorum-switches to {1,2,4},
	// where only two objects have seen v2 — completeness stays in doubt.
	if err := c.Partition(4); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Heal(4); err != nil {
		t.Fatal(err)
	}
	if err := c.Partition(3); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(rounds, 0)
	v, err := st.Get("k")
	if err != nil || v != "v2" {
		t.Fatalf("Get = %q, %v; want v2", v, err)
	}
	if got := atomic.LoadInt64(rounds); got != 4 {
		t.Fatalf("incomplete-write Get took %d rounds, want 4 (full write-back)", got)
	}
	// Quorum recovered: v2 is now held by {1,2,3} (and re-asserted by the
	// write-back), so the next Get elides again.
	if err := c.Heal(3); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(rounds, 0)
	if v, err := st.Get("k"); err != nil || v != "v2" {
		t.Fatalf("recovered Get = %q, %v; want v2", v, err)
	}
	if got := atomic.LoadInt64(rounds); got != 2 {
		t.Fatalf("recovered Get took %d rounds, want 2 (elision earned back)", got)
	}
}

// TestStoreGetNoElisionUnderByzantine pins the elision condition's
// soundness against active adversaries: a stale or equivocating object can
// WITHHOLD completeness evidence (costing the read its write-back rounds)
// but can never forge the S−t w-reports that would let a read elide the
// write-back of a genuinely incomplete decision — and the read still
// returns the freshest certified value.
func TestStoreGetNoElisionUnderByzantine(t *testing.T) {
	for _, mode := range []string{"stale", "equivocate"} {
		t.Run(mode, func(t *testing.T) {
			st, rounds, _ := countingStore(t, 43)
			c := st.c
			if err := st.Put("k", "v1"); err != nil {
				t.Fatal(err)
			}
			if err := c.InjectFault(1, mode); err != nil {
				t.Fatal(err)
			}
			if mode == "equivocate" {
				// The equivocator answers readers from a state frozen at the
				// first read it serves: freeze it at v1, before v2 lands.
				if v, err := st.Get("k"); err != nil || v != "v1" {
					t.Fatalf("freeze Get = %q, %v; want v1", v, err)
				}
			}
			if err := st.Put("k", "v2"); err != nil {
				t.Fatal(err)
			}
			// Cut one CORRECT holder of v2 off: the queried quorum is now
			// {byzantine 1, correct 2, correct 3} — two genuine w-reports of
			// v2, one forged-or-frozen view. Elision must not fire.
			if err := c.Partition(4); err != nil {
				t.Fatal(err)
			}
			atomic.StoreInt64(rounds, 0)
			v, err := st.Get("k")
			if err != nil || v != "v2" {
				t.Fatalf("Get = %q, %v; want v2", v, err)
			}
			if got := atomic.LoadInt64(rounds); got != 4 {
				t.Fatalf("Byzantine-disturbed Get took %d rounds, want 4 (elision withheld, never forged)", got)
			}
		})
	}
}

// TestStoreGetCoalescing pins the read-side group commit: Gets that arrive
// while a shard read is in flight coalesce into one pending batch served by
// a SINGLE protocol read once the in-flight read completes — K concurrent
// Gets cost 2 rounds, not 2K. The test plays the in-flight leader itself
// (taking the leadership flag, then handing off exactly as a finishing
// leader does), which makes the coalescing window deterministic.
func TestStoreGetCoalescing(t *testing.T) {
	st, rounds, _ := countingStore(t, 44)
	if err := st.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	sh, err := st.shards.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	// Pose as a running read leader: arriving Gets must now coalesce.
	sh.rmu.Lock()
	sh.greading = true
	sh.rmu.Unlock()

	const K = 6
	var wg sync.WaitGroup
	errs := make([]error, K)
	vals := make([]string, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = st.Get("k")
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.rmu.Lock()
		joined := 0
		if sh.gnext != nil {
			joined = sh.gnext.waiters
		}
		sh.rmu.Unlock()
		if joined == K {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d Gets coalesced into the pending batch", joined, K)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Finish as the leader would: hand the pending batch its leadership
	// token. One waiter runs the shared read; the rest ride it.
	atomic.StoreInt64(rounds, 0)
	sh.rmu.Lock()
	sh.gnext.lead <- struct{}{}
	sh.rmu.Unlock()
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil || vals[i] != "v" {
			t.Fatalf("coalesced Get %d = %q, %v; want v", i, vals[i], errs[i])
		}
	}
	if got := atomic.LoadInt64(rounds); got != 2 {
		t.Fatalf("%d coalesced Gets took %d rounds, want 2 (one shared elided read)", K, got)
	}
	// The shard must be back in its idle state.
	sh.rmu.Lock()
	idle := !sh.greading && sh.gnext == nil
	sh.rmu.Unlock()
	if !idle {
		t.Fatal("shard read state not idle after the batch drained")
	}
}

// TestStoreGetCertifiedTableCache pins the decode cache: consecutive Gets
// deciding on the same certified timestamp share ONE decoded table (the
// second read skips the decode entirely), and any flush that moves the
// register head drops the entry.
func TestStoreGetCertifiedTableCache(t *testing.T) {
	st, _, _ := countingStore(t, 45)
	for i := 0; i < 4; i++ {
		if err := st.Put(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := st.shards.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := sh.sharedRead()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sh.sharedRead()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(t1).Pointer() != reflect.ValueOf(t2).Pointer() {
		t.Fatal("second read at the same certified timestamp decoded a fresh table (cache miss)")
	}
	// A flush moves the head and must invalidate; the next read decides the
	// new timestamp and decodes anew.
	if err := st.Put("k0", "v2"); err != nil {
		t.Fatal(err)
	}
	sh.cacheMu.Lock()
	invalidated := sh.cacheTab == nil
	sh.cacheMu.Unlock()
	if !invalidated {
		t.Fatal("flush did not invalidate the certified-table cache")
	}
	t3, err := sh.sharedRead()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(t3).Pointer() == reflect.ValueOf(t1).Pointer() {
		t.Fatal("read after flush returned the stale cached table")
	}
	if t3["k0"] != "v2" || t3["k1"] != "v" {
		t.Fatalf("post-flush table = %v", t3)
	}
	// The cache must never alias the committer-private table (the committer
	// mutates its copy in place between flushes).
	sh.cacheMu.Lock()
	aliased := sh.cacheTab != nil &&
		reflect.ValueOf(sh.cacheTab).Pointer() == reflect.ValueOf(sh.table).Pointer()
	sh.cacheMu.Unlock()
	if aliased {
		t.Fatal("certified-table cache aliases the committer's table")
	}
}

// TestStoreGetWireFootprint pins the known-timestamp query replies over
// real daemons: a stable Get names the pair the process already holds (its
// own last flush, then its last read decision), so objects at it reply
// without the table and the Get receives less than one table's worth of
// bytes. A foreign writer's Put makes that name stale; the next Get must
// still return the foreign value, over full replies.
func TestStoreGetWireFootprint(t *testing.T) {
	var addrs []string
	for i := 1; i <= 4; i++ {
		s, err := tcpnet.NewServer(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		addrs = append(addrs, s.Addr())
	}
	connect := func(wid, reader int) *Store {
		t.Helper()
		c, err := Connect(addrs, Options{Faults: 1, Readers: 2, WriterID: wid, Seed: int64(60 + wid)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		st, err := c.NewStore(StoreOptions{Shards: 1, Readers: []int{reader}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := connect(1, 1)
	table := 0
	for i := 0; i < 64; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d-%s", i, strings.Repeat("x", 48))
		if err := st.Put(k, v); err != nil {
			t.Fatal(err)
		}
		table += len(k) + len(v)
	}
	// A round returns at a quorum, so a straggler's reply can land during
	// the next Get: count each Get's bytes from a quiet wire to a quiet
	// wire, stragglers included.
	rx := obs.Default.Counter("tcpnet_client_rx_bytes_total")
	quiet := func() int64 {
		for deadline := time.Now().Add(2 * time.Second); ; {
			n := rx.Value()
			time.Sleep(20 * time.Millisecond)
			if rx.Value() == n || time.Now().After(deadline) {
				return n
			}
		}
	}
	get := func(key string) (string, int64) {
		t.Helper()
		before := quiet()
		v, err := st.Get(key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		return v, quiet() - before
	}

	for i := 1; i <= 3; i++ {
		v, n := get("key-007")
		if !strings.HasPrefix(v, "value-007-") {
			t.Fatalf("get %d = %q", i, v)
		}
		if n >= int64(table) {
			t.Errorf("stable Get %d after own Put received %d bytes, want < one %d-byte table", i, n, table)
		}
	}

	// A second process writes the shard: the first one's known pair is now
	// stale, no object elides against it, and the Get falls back to full
	// values — then names the newly decided pair again.
	if err := connect(2, 2).Put("key-007", "foreign"); err != nil {
		t.Fatal(err)
	}
	v, n := get("key-007")
	if v != "foreign" {
		t.Fatalf("Get after a foreign Put = %q, want foreign", v)
	}
	if n < int64(table) {
		t.Errorf("Get over a stale name received only %d bytes, want the full %d-byte table", n, table)
	}
	if v, n = get("key-007"); v != "foreign" || n >= int64(table) {
		t.Errorf("stable Get after learning the foreign pair = %q over %d bytes, want foreign under %d", v, n, table)
	}
}
