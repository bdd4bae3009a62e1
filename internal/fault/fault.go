// Package fault is the deterministic fault-injection substrate for the
// serving stack: named failpoints compiled into the shard, scatter and
// append paths fire injected errors or stalls with configured
// probability, so chaos tests and CI can exercise every recovery branch
// (hedged reads, fragment retries, lagging replicas, graceful
// degradation) without real hardware failures.
//
// Design constraints, in order:
//
//   - Zero cost when disabled: every production call site holds a nil
//     *Injector and every method is nil-receiver-safe, so the disabled
//     path is one pointer compare.
//   - Deterministic: outcomes derive from a seeded counter-based PRNG
//     (splitmix64 over seed x failpoint x shard x replica x that site's
//     invocation ordinal), so each (failpoint, shard, replica) site
//     replays the same fault schedule every run, however concurrent
//     call sites interleave.
//   - Targetable: a rule can scope itself to one shard and/or one
//     replica, so a test can stall "replica 0 of every shard" or kill
//     "both replicas of shard 1" precisely.
//
// Stalls are delays, not failures: a stalled call sleeps for the rule's
// duration (context-aware, so hedge losers and canceled queries unblock
// immediately) and then proceeds normally. Errors return ErrInjected
// wrapped with the failpoint coordinates.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names a compiled-in failpoint.
type Point string

// The failpoint catalog. Each constant is referenced by exactly one
// call site family; the spec grammar uses these names verbatim.
const (
	// FragmentError fails a scatter filter-fragment attempt on
	// (shard, replica) before it reads the snapshot.
	FragmentError Point = "fragment-error"
	// FragmentStall delays a scatter filter-fragment attempt, modeling a
	// slow or wedged shard (the hedge trigger).
	FragmentStall Point = "fragment-stall"
	// AppendError fails one replica's write during a routed append.
	// On the primary replica the whole append fails; on a secondary the
	// replica falls behind and leaves the read set (core.Sharded
	// semantics).
	AppendError Point = "append-error"
	// DeviceStall delays a similarity-join task before it submits
	// kernels, modeling a slow device queue.
	DeviceStall Point = "device-stall"
	// ResyncError fails a replica re-sync mid-stream on (shard, replica):
	// the repair stops, leaving the replica behind with whatever valid
	// prefix it had reached (torn-repair chaos testing).
	ResyncError Point = "resync-error"
	// ResyncStall delays a replica re-sync batch, modeling a slow repair
	// (appends carry on meanwhile).
	ResyncStall Point = "resync-stall"
)

// ErrInjected is the sentinel every injected failure wraps.
var ErrInjected = errors.New("fault: injected failure")

// Any matches every shard or replica in a rule scope.
const Any = -1

// DefaultStall is a stall rule's delay when the spec names none.
const DefaultStall = 500 * time.Millisecond

// Rule arms one failpoint: fire with probability Prob at call sites
// matching the Shard/Replica scope (Any matches all). Stall is the
// delay for stall points (DefaultStall when zero). A stall rule with a
// Hold channel instead lasts until Hold is closed: a wedged shard that
// heals when its owner says so, whatever the scheduler's delays.
type Rule struct {
	Point   Point
	Shard   int
	Replica int
	Prob    float64
	Stall   time.Duration
	Hold    <-chan struct{}
}

// Config arms a set of rules under one deterministic seed.
type Config struct {
	Seed  int64
	Rules []Rule
}

// Enabled reports whether any rule is armed.
func (c Config) Enabled() bool { return len(c.Rules) > 0 }

// ParseRule parses one flag-style rule spec:
//
//	point:prob               fragment-stall:0.2
//	point:prob:stallMS       fragment-stall:1:50
//	point@shard:prob         append-error@2:0.5
//	point@shard.replica:prob fragment-stall@*.0:1:50
//
// shard and replica accept * (any). prob is in [0, 1] (NaN is not), and
// stallMS must fit a time.Duration.
func ParseRule(spec string) (Rule, error) {
	r := Rule{Shard: Any, Replica: Any}
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return r, fmt.Errorf("fault: bad rule %q (want point[@shard[.replica]]:prob[:stallMS])", spec)
	}
	name := parts[0]
	if at := strings.IndexByte(name, '@'); at >= 0 {
		scope := name[at+1:]
		name = name[:at]
		shard, replica := scope, ""
		if dot := strings.IndexByte(scope, '.'); dot >= 0 {
			shard, replica = scope[:dot], scope[dot+1:]
		}
		var err error
		if r.Shard, err = parseScope(shard); err != nil {
			return r, fmt.Errorf("fault: bad shard scope in %q: %w", spec, err)
		}
		if replica != "" {
			if r.Replica, err = parseScope(replica); err != nil {
				return r, fmt.Errorf("fault: bad replica scope in %q: %w", spec, err)
			}
		}
	}
	switch Point(name) {
	case FragmentError, FragmentStall, AppendError, DeviceStall, ResyncError, ResyncStall:
		r.Point = Point(name)
	default:
		return r, fmt.Errorf("fault: unknown failpoint %q (want %s, %s, %s, %s, %s or %s)",
			name, FragmentError, FragmentStall, AppendError, DeviceStall, ResyncError, ResyncStall)
	}
	prob, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || !(prob >= 0 && prob <= 1) { // NaN fails both
		return r, fmt.Errorf("fault: bad probability %q in %q (want [0,1])", parts[1], spec)
	}
	r.Prob = prob
	if len(parts) == 3 {
		ms, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil || ms < 0 || ms > math.MaxInt64/int64(time.Millisecond) {
			return r, fmt.Errorf("fault: bad stall duration %q in %q (want milliseconds)", parts[2], spec)
		}
		r.Stall = time.Duration(ms) * time.Millisecond
	}
	return r, nil
}

func parseScope(s string) (int, error) {
	if s == "*" || s == "" {
		return Any, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a non-negative integer or *, got %q", s)
	}
	return n, nil
}

// ParseRules parses a comma-separated rule list (the -fault flag form).
func ParseRules(specs string) ([]Rule, error) {
	var rules []Rule
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		r, err := ParseRule(spec)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// Injector evaluates armed rules at failpoints. The zero-value pointer
// (nil) is the disabled injector: every method no-ops.
type Injector struct {
	seed  uint64
	rules []Rule
	fired [6]atomic.Int64 // per-point fired counters, indexed by pointIdx

	mu  sync.Mutex
	seq map[site]uint64 // draws so far at each site
}

// site is one failpoint call-site coordinate; each draws its own
// ordinal sequence.
type site struct{ point, shard, replica int }

func pointIdx(p Point) int {
	switch p {
	case FragmentError:
		return 0
	case FragmentStall:
		return 1
	case AppendError:
		return 2
	case ResyncError:
		return 4
	case ResyncStall:
		return 5
	default:
		return 3
	}
}

// New arms cfg's rules. With no rules it returns nil — the disabled
// injector every method treats as "never fire".
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{seed: uint64(cfg.Seed), rules: cfg.Rules, seq: make(map[site]uint64)}
}

// Enabled reports whether any rule is armed.
func (in *Injector) Enabled() bool { return in != nil && len(in.rules) > 0 }

// Fired returns how many times the failpoint has fired.
func (in *Injector) Fired(p Point) int64 {
	if in == nil {
		return 0
	}
	return in.fired[pointIdx(p)].Load()
}

// splitmix64 finalizer: decorrelates sequential draw ordinals.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// draw returns a deterministic uniform in [0, 1) for this invocation
// of site (p, shard, replica): the site's n-th draw is the same whatever
// other sites drew meanwhile.
func (in *Injector) draw(p Point, shard, replica int) float64 {
	k := site{pointIdx(p), shard, replica}
	in.mu.Lock()
	in.seq[k]++
	n := in.seq[k]
	in.mu.Unlock()
	coord := splitmix64(uint64(uint32(shard))<<32 | uint64(uint32(replica)))
	h := splitmix64(in.seed ^ splitmix64(n^coord) ^ uint64(k.point)<<56)
	return float64(h>>11) / (1 << 53)
}

// match returns the first armed rule covering (p, shard, replica) whose
// probability draw fires.
func (in *Injector) match(p Point, shard, replica int) *Rule {
	if in == nil {
		return nil
	}
	for i := range in.rules {
		r := &in.rules[i]
		if r.Point != p {
			continue
		}
		if r.Shard != Any && r.Shard != shard {
			continue
		}
		if r.Replica != Any && r.Replica != replica {
			continue
		}
		if r.Prob >= 1 || in.draw(p, shard, replica) < r.Prob {
			return r
		}
	}
	return nil
}

// Fail evaluates an error failpoint: a non-nil return means the call
// site must fail with it.
func (in *Injector) Fail(p Point, shard, replica int) error {
	r := in.match(p, shard, replica)
	if r == nil {
		return nil
	}
	in.fired[pointIdx(p)].Add(1)
	return fmt.Errorf("%w: %s at shard %d replica %d", ErrInjected, p, shard, replica)
}

// Stall evaluates a stall failpoint: if armed it sleeps for the rule's
// duration (DefaultStall when unset), or until its Hold is closed, or
// until ctx is done, returning ctx.Err() in the canceled case so hedge
// losers abandon the attempt. A completed stall returns nil and the
// call site proceeds normally — stalls model slowness, not failure.
func (in *Injector) Stall(ctx context.Context, p Point, shard, replica int) error {
	r := in.match(p, shard, replica)
	if r == nil {
		return nil
	}
	in.fired[pointIdx(p)].Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	var expired <-chan time.Time // nil, so never ready, while held
	if r.Hold == nil {
		d := r.Stall
		if d <= 0 {
			d = DefaultStall
		}
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-expired:
		return nil
	case <-r.Hold:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
