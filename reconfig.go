package robustatomic

import (
	"errors"
	"fmt"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// Dynamic reconfiguration observability: refetches triggered by wrong-epoch
// redirects, configurations adopted (the client-side epoch transitions), and
// register instances migrated to incoming daemons.
var (
	mCfgRefetch  = obs.Default.Counter("cluster_config_refetch_total")
	mCfgAdopted  = obs.Default.Counter("cluster_config_adopted_total")
	mMigrateRegs = obs.Default.Counter("cluster_migrate_registers_total")
)

// The configuration plane: the cluster's membership lives in a quorum-
// replicated CONFIG REGISTER — an ordinary robust MWMR atomic register
// instance at the reserved id config.Reg, hosted on the same S objects as
// the data, holding the encoded {epoch, slot→address} configuration.
// Membership transitions (Join/Leave/Move) are certified read-modify-writes
// of that register decided by the existing multi-writer write protocol: no
// consensus, no Paxos — registers cannot solve consensus, so two operators
// racing conflicting transitions resolve by register order (last writer
// wins) and must serialize themselves; what the register DOES guarantee is
// that every adopted configuration derives from a genuine, certified
// predecessor, that epochs only grow, and that S never changes (the
// fixed-S rule: one slot joins, leaves or moves per epoch, so consecutive
// epochs' quorums always intersect in ≥ t+1 common members — see DESIGN.md
// for the handoff safety argument).
//
// Objects learn the new epoch from the config write itself (the daemon
// re-derives its active epoch whenever its config instance mutates) and
// from then on refuse data-plane requests stamped with a superseded epoch.
// Clients react to the refusal (tcpnet.WrongEpochError) with refreshConfig:
// re-read the config register — a certified quorum read, never a trusted
// hint — adopt the newer membership into the shared mux, and retry the
// operation. Config-plane rounds themselves carry the epoch-0 wildcard
// stamp, so the configuration stays readable ACROSS the epoch change.

// maxEpochRetries bounds how many wrong-epoch redirects one operation will
// chase. Each retry adopts a strictly newer epoch (refreshConfig fails
// otherwise), so the bound only bites under a pathological storm of
// back-to-back reconfigurations.
const maxEpochRetries = 4

// retryEpoch runs op, reacting to wrong-epoch redirects with a config
// refetch and an immediate retry (the internal/retry classification:
// Reconfig failures are cured by refetching, not by waiting). Any other
// outcome — success, or any other failure — passes through untouched.
// Retrying at the OPERATION level is deliberate: a redirected round's
// accumulators are bound to the superseded membership view, so the
// operation restarts from scratch against the adopted one.
func (c *Cluster) retryEpoch(op func() error) error {
	err := op()
	for attempt := 0; attempt < maxEpochRetries; attempt++ {
		var we *tcpnet.WrongEpochError
		if !errors.As(err, &we) {
			return err
		}
		if rerr := c.refreshConfig(we); rerr != nil {
			if we.Cause != nil {
				// The refusals were too few to prove a newer configuration
				// and the refetch found none: the round actually died of
				// we.Cause (connection losses, unsatisfied accumulator).
				// Surface THAT — it classifies Transient/Degraded, so the
				// caller's ordinary retry loop applies — instead of turning
				// a lone forged refusal into an operation-level error.
				return we.Cause
			}
			return fmt.Errorf("%w (config refetch: %v)", err, rerr)
		}
		err = op()
	}
	return err
}

// configReadSpec builds the config register's one-round certified read:
// collect (pw, w) states from a quorum, certify below. One round suffices
// where the data plane needs two: the caller does not need atomicity, only
// a GENUINE configuration no older than whatever is refusing it — and any
// epoch that actually blocks a data round is held by more than t objects,
// hence by at least t+1 of them, hence certifiable from one quorum of
// states (see refreshConfig).
func configReadSpec(th quorum.Thresholds) (proto.RoundSpec, *regular.StateAcc) {
	acc := regular.NewStateAcc(th)
	spec := proto.RoundSpec{
		Label: "CFGREAD",
		Req:   func(int) types.Message { return types.Message{Kind: types.MsgRead1} },
		Acc:   acc,
	}
	return spec, acc
}

// certifiedConfigPair extracts the newest certified configuration from a
// quorum of config-register states: among w-pairs reported by at least t+1
// distinct objects — so at least one reporter is correct and the pair is
// genuinely written, not a Byzantine fabrication — decode and return the
// one with the highest epoch, alongside the register pair that carries it
// (ReseedConfig installs exactly that pair into an unseeded newcomer). ok
// is false when no non-⊥ pair certifies (a freshly-bootstrapped cluster
// whose config register was never written).
func certifiedConfigPair(th quorum.Thresholds, replies map[int]types.Message) (config.Config, types.Pair, bool) {
	counts := make(map[types.Pair]int, len(replies))
	for _, m := range replies {
		if !m.W.IsBottom() {
			counts[m.W]++
		}
	}
	var best config.Config
	var bestPair types.Pair
	found := false
	for p, n := range counts {
		if n < th.Certify() {
			continue
		}
		cfg, err := config.Decode(p.Val)
		if err != nil {
			continue // fabricated bytes cannot reach t+1 reporters, but stay hostile-proof
		}
		if !found || best.Epoch < cfg.Epoch {
			best, bestPair, found = cfg, p, true
		}
	}
	return best, bestPair, found
}

// certifiedConfig is certifiedConfigPair without the carrier pair.
func certifiedConfig(th quorum.Thresholds, replies map[int]types.Message) (config.Config, bool) {
	cfg, _, ok := certifiedConfigPair(th, replies)
	return cfg, ok
}

// activeAddrs returns the cluster's current address view: the shared mux's
// (which tracks adopted configurations) when built, the Connect list
// otherwise.
func (c *Cluster) activeAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mux != nil {
		return c.mux.Addrs()
	}
	return append([]string(nil), c.addrs...)
}

// configurable errors out for clusters whose transport cannot adopt a new
// membership: reconfiguration needs a remote cluster on the shared
// pipelined mux (lock-step handles each own a private frozen address list).
func (c *Cluster) configurable() error {
	if c.addrs == nil {
		return fmt.Errorf("robustatomic: reconfiguration needs a remote cluster (Connect)")
	}
	if c.opts.LockStep {
		return fmt.Errorf("robustatomic: reconfiguration needs the pipelined transport (Options.LockStep is set)")
	}
	return nil
}

// ConfigQuery returns the cluster's active configuration: the newest
// certified content of the config register, or the bootstrap configuration
// (epoch 1, the Connect address list) if the register was never written.
func (c *Cluster) ConfigQuery() (config.Config, error) {
	if err := c.configurable(); err != nil {
		return config.Config{}, err
	}
	spec, acc := configReadSpec(c.th)
	if err := c.rounder(types.Reader(1), config.Reg).Round(spec); err != nil {
		return config.Config{}, fmt.Errorf("robustatomic: config read: %w", err)
	}
	if cfg, ok := certifiedConfig(c.th, acc.Replies); ok {
		return cfg, nil
	}
	return config.Bootstrap(c.addrs), nil
}

// queryConfigOver runs the certified config read over an explicit address
// set (a redirect hint's) on a throwaway transport, so an unverified hint
// never touches the cluster's own connections.
func (c *Cluster) queryConfigOver(addrs []string) (config.Config, bool) {
	if len(addrs) != c.th.S {
		return config.Config{}, false
	}
	tc := tcpnet.NewClientReg(types.Reader(1), addrs, config.Reg)
	defer tc.Close()
	spec, acc := configReadSpec(c.th)
	if err := tc.Round(spec); err != nil {
		return config.Config{}, false
	}
	return certifiedConfig(c.th, acc.Replies)
}

// refreshConfig reacts to a wrong-epoch redirect: learn a certified
// configuration strictly newer than the mux's and adopt it. Hints are
// trust-but-VERIFY — a Byzantine refuser can fabricate both the epoch and
// the hinted membership, so a hint only nominates an address set to run the
// certified quorum read over (at least t+1 matching reporters there make
// the result genuine regardless of who suggested the addresses); the
// current view is always tried too, since more than t refusals imply the
// newer config is certifiable from the very objects that refused.
func (c *Cluster) refreshConfig(we *tcpnet.WrongEpochError) error {
	if err := c.configurable(); err != nil {
		return err
	}
	mCfgRefetch.Inc()
	c.mu.Lock()
	cur := c.muxLocked().Epoch()
	c.mu.Unlock()
	if we != nil && cur >= we.Epoch {
		// A concurrent operation's refetch already adopted an epoch at least
		// as new as the refusers reported — nothing to learn, just retry the
		// operation on the adopted view.
		return nil
	}
	var cands [][]string
	if we != nil {
		for _, h := range we.Hints {
			if cfg, err := config.Decode(h); err == nil && cfg.Epoch > cur {
				cands = append(cands, cfg.Addrs)
			}
		}
	}
	cands = append(cands, c.activeAddrs())
	for _, addrs := range cands {
		cfg, ok := c.queryConfigOver(addrs)
		if !ok || cfg.Epoch <= cur {
			continue
		}
		return c.adopt(cfg)
	}
	return fmt.Errorf("robustatomic: no certified configuration newer than epoch %d found", cur)
}

// adopt installs a certified configuration into the shared transport.
func (c *Cluster) adopt(cfg config.Config) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.muxLocked().Reconfigure(cfg.Epoch, cfg.Addrs); err != nil {
		return fmt.Errorf("robustatomic: adopt epoch %d: %w", cfg.Epoch, err)
	}
	mCfgAdopted.Inc()
	return nil
}

// baseConfig resolves the configuration a transition rebases on: the
// decoded current register content, or the bootstrap configuration for a
// never-written register.
func (c *Cluster) baseConfig(cur types.Pair) (config.Config, error) {
	if cur.IsBottom() {
		boot := config.Bootstrap(c.addrs)
		if err := boot.Validate(); err != nil {
			return config.Config{}, fmt.Errorf("robustatomic: bootstrap configuration: %w", err)
		}
		return boot, nil
	}
	cfg, err := config.Decode(cur.Val)
	if err != nil {
		return config.Config{}, fmt.Errorf("robustatomic: config register holds undecodable configuration: %w", err)
	}
	return cfg, nil
}

// transitionConfig runs one membership transition as a certified
// read-modify-write of the config register: certified read of the current
// configuration, transition applied (and therefore re-validated) against
// exactly what was read — so a racing transition that lands first makes
// this one rebase and re-check against the winner — and the result written
// at the successor timestamp. Returns the new configuration and the
// register pair that carries it (Join/Move seed that pair into the
// incoming daemon, which was not a member when the write ran).
func (c *Cluster) transitionConfig(transition func(config.Config) (config.Config, error)) (config.Config, types.Pair, error) {
	var next config.Config
	w := c.writerReg(config.Reg, types.TS{})
	p, err := w.modifyPair(func(cur types.Pair) (types.Value, error) {
		base, err := c.baseConfig(cur)
		if err != nil {
			return "", err
		}
		if next, err = transition(base); err != nil {
			return "", err
		}
		return next.Encode(), nil
	})
	if err != nil {
		return config.Config{}, types.Pair{}, fmt.Errorf("robustatomic: config write: %w", err)
	}
	return next, p, nil
}

// migrate transfers the certified state of register instances 0..shards to
// the daemon at addr — an incoming member, dialed directly since it is not
// (yet) in any configuration. Per instance: certified quorum read against
// the live members, a cluster-wide re-PREWRITE of the certified pair (the
// multi-writer decision procedure assumes every w-held pair completed its
// PREWRITE at 2t+1 objects; certification may rest on a thinner original
// quorum, and the incoming daemon's w-report must not be the one that
// breaks the invariant), then a direct seed into the target. Run BEFORE the
// config write activates the new epoch, so the transfer's own rounds are
// not refused; writes racing the transfer merely leave the incoming daemon
// slightly stale, which the protocol already tolerates (correct-but-slow).
func (c *Cluster) migrate(addr string, shards int) ([]RepairedRegister, error) {
	if shards < 0 {
		return nil, fmt.Errorf("robustatomic: negative shard count %d", shards)
	}
	if c.opts.Model == SecretTokens {
		return nil, fmt.Errorf("robustatomic: migration does not support the SecretTokens model (transferred state would lack the peers' tokens)")
	}
	d, err := tcpnet.DialDirect(addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("robustatomic: migrate: %w", err)
	}
	defer d.Close()
	return c.transferRegisters(d, shards)
}

// transferRegisters is the shared body of Repair and migrate: certified
// read, cluster-wide prewrite support, direct seed, per register instance.
func (c *Cluster) transferRegisters(d *tcpnet.Direct, shards int) ([]RepairedRegister, error) {
	out := make([]RepairedRegister, 0, shards+1)
	for reg := 0; reg <= shards; reg++ {
		// The quorum read: reader identity 1 against this instance. Its
		// write-back already repairs the *reader's* register as a side
		// effect; the explicit seed below installs the writer's register,
		// which carries the certified head of the instance.
		r, err := c.readerReg(1, reg)
		if err != nil {
			return out, fmt.Errorf("robustatomic: transfer instance %d: %w", reg, err)
		}
		p, err := r.readPair(types.Pair{})
		if err != nil {
			return out, fmt.Errorf("robustatomic: transfer instance %d: quorum read: %w", reg, err)
		}
		if p.IsBottom() {
			out = append(out, RepairedRegister{Reg: reg, Skipped: true})
			continue
		}
		// Re-establish the prewrite-support invariant before installing the
		// pair in the target's w: one cluster-wide PREWRITE of the certified
		// pair — monotone, so it can never regress newer state — makes the
		// seeded w-report consistent with the true fault set on every later
		// read (see the migrate doc comment).
		rc := c.rounder(types.Reader(1), reg)
		err = c.retryEpoch(func() error {
			return rc.Round(regular.PreWriteSpec(c.th, types.WriterReg, p, 0))
		})
		if err != nil {
			return out, fmt.Errorf("robustatomic: transfer instance %d: prewrite support: %w", reg, err)
		}
		if err := d.Seed(reg, p); err != nil {
			return out, fmt.Errorf("robustatomic: transfer instance %d: %w", reg, err)
		}
		mMigrateRegs.Inc()
		out = append(out, RepairedRegister{Reg: reg, TS: p.TS, Bytes: len(p.Val)})
	}
	return out, nil
}

// ErrNewcomerUnseeded marks the one partial-failure state a Join/Move can
// leave behind: the configuration transition is DECIDED cluster-wide (the
// config register's certified write completed), but seeding the winning
// pair into the incoming daemon failed even after retries. The newcomer is
// then a member whose epoch gate never activated — it accepts stale-epoch
// traffic until seeded. The remediation is idempotent: re-run
// `storctl reseed <addr>` (Cluster.ReseedConfig), which re-reads the
// certified configuration and re-installs it; seeding is monotone on the
// daemon side, so repeating it is always safe.
var ErrNewcomerUnseeded = errors.New("robustatomic: configuration decided but newcomer not seeded (its epoch gate is inactive; re-seed with 'storctl reseed <addr>')")

// seedConfig installs the configuration pair into the incoming daemon's
// config register: the daemon was not a member when the config write ran,
// and its epoch gate activates from exactly this instance's state.
func seedConfig(addr string, p types.Pair) error {
	d, err := tcpnet.DialDirect(addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("robustatomic: seed config: %w", err)
	}
	defer d.Close()
	if err := d.Seed(config.Reg, p); err != nil {
		return fmt.Errorf("robustatomic: seed config: %w", err)
	}
	return nil
}

// Newcomer seeding runs AFTER the transition is decided, so a failure there
// cannot be rolled back — retry it a few times before surfacing the
// decided-but-unseeded state to the operator.
const (
	seedAttempts   = 3
	seedRetryPause = 200 * time.Millisecond
)

// seedNewcomer is seedConfig with retries and the distinguished
// ErrNewcomerUnseeded wrapper (see that error's doc for why this state is
// special: the config write already decided, only the newcomer's copy is
// missing, and re-seeding is idempotent).
func seedNewcomer(addr string, p types.Pair) error {
	var err error
	for attempt := 0; attempt < seedAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(seedRetryPause)
		}
		if err = seedConfig(addr, p); err == nil {
			return nil
		}
	}
	return fmt.Errorf("%w: %s: %v", ErrNewcomerUnseeded, addr, err)
}

// ReseedConfig re-installs the cluster's newest certified configuration
// into the daemon at addr — the remediation for ErrNewcomerUnseeded.
// Idempotent and safe to run against any member: the daemon's config
// register only moves forward, so re-seeding an already-seeded daemon is a
// no-op.
func (c *Cluster) ReseedConfig(addr string) error {
	if err := c.configurable(); err != nil {
		return err
	}
	spec, acc := configReadSpec(c.th)
	if err := c.rounder(types.Reader(1), config.Reg).Round(spec); err != nil {
		return fmt.Errorf("robustatomic: reseed: config read: %w", err)
	}
	_, p, ok := certifiedConfigPair(c.th, acc.Replies)
	if !ok {
		return fmt.Errorf("robustatomic: reseed: no certified configuration (register never written — nothing to seed)")
	}
	return seedConfig(addr, p)
}

// Join admits the daemon at addr into the lowest vacant slot of the active
// configuration: register state for instances 0..shards migrates to it
// first (so it serves reads the moment it is a member), then the config
// register's certified read-modify-write decides the transition, the
// winning configuration is seeded into the newcomer, and the cluster's own
// transport adopts it. The epoch advances by one; S is fixed, so Join only
// succeeds while a Leave has left a slot vacant.
func (c *Cluster) Join(addr string, shards int) (config.Config, []RepairedRegister, error) {
	if err := c.configurable(); err != nil {
		return config.Config{}, nil, err
	}
	migrated, err := c.migrate(addr, shards)
	if err != nil {
		return config.Config{}, migrated, err
	}
	next, p, err := c.transitionConfig(func(base config.Config) (config.Config, error) {
		return base.Join(addr)
	})
	if err != nil {
		return config.Config{}, migrated, err
	}
	return next, migrated, c.sealTransition(next, addr, p)
}

// sealTransition finishes a decided Join/Move: seed the winning
// configuration into the newcomer (with retries) and adopt it into this
// cluster's own transport. The transition is decided regardless of either
// outcome, so adoption runs even when seeding ultimately fails — the
// caller keeps operating on the winning configuration while the
// distinguished ErrNewcomerUnseeded tells the operator exactly what is
// left to remediate (and how).
func (c *Cluster) sealTransition(next config.Config, addr string, p types.Pair) error {
	serr := seedNewcomer(addr, p)
	if aerr := c.adopt(next); aerr != nil {
		return errors.Join(serr, aerr)
	}
	return serr
}

// Leave vacates slot sid: the daemon at that slot stops being a member once
// the decided configuration activates (objects holding the new epoch refuse
// its epoch's traffic; clients drop its connection and dial state on
// adoption). The vacancy counts against the fault budget — a vacant slot is
// a permanently-crashed object — so at most t slots may be vacant at a
// time, which Leave's transition validation enforces.
func (c *Cluster) Leave(sid int) (config.Config, error) {
	if err := c.configurable(); err != nil {
		return config.Config{}, err
	}
	next, _, err := c.transitionConfig(func(base config.Config) (config.Config, error) {
		return base.Leave(sid)
	})
	if err != nil {
		return config.Config{}, err
	}
	return next, c.adopt(next)
}

// Move atomically replaces slot sid's address with addr — the live-replace
// flow: migrate register state to the incoming daemon, decide the
// single-slot swap on the config register, seed the winning configuration
// into the newcomer, adopt. Unlike Leave-then-Join there is no vacancy
// window: the slot is always populated, so the fault budget never pays for
// the handoff, and old- and new-epoch quorums intersect in ≥ t+1 common
// members throughout (see DESIGN.md).
func (c *Cluster) Move(sid int, addr string, shards int) (config.Config, []RepairedRegister, error) {
	if err := c.configurable(); err != nil {
		return config.Config{}, nil, err
	}
	migrated, err := c.migrate(addr, shards)
	if err != nil {
		return config.Config{}, migrated, err
	}
	next, p, err := c.transitionConfig(func(base config.Config) (config.Config, error) {
		return base.Move(sid, addr)
	})
	if err != nil {
		return config.Config{}, migrated, err
	}
	return next, migrated, c.sealTransition(next, addr, p)
}
