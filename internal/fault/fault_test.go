package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if err := in.Fail(FragmentError, 0, 0); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if err := in.Stall(context.Background(), FragmentStall, 0, 0); err != nil {
		t.Fatalf("nil injector stalled: %v", err)
	}
	if got := in.Fired(AppendError); got != 0 {
		t.Fatalf("nil injector Fired = %d", got)
	}
	if New(Config{Seed: 1}) != nil {
		t.Fatal("New with no rules should return nil")
	}
}

func TestParseRule(t *testing.T) {
	cases := []struct {
		spec string
		want Rule
	}{
		{"fragment-stall:0.2", Rule{Point: FragmentStall, Shard: Any, Replica: Any, Prob: 0.2}},
		{"fragment-stall:1:50", Rule{Point: FragmentStall, Shard: Any, Replica: Any, Prob: 1, Stall: 50 * time.Millisecond}},
		{"append-error@2:0.5", Rule{Point: AppendError, Shard: 2, Replica: Any, Prob: 0.5}},
		{"fragment-stall@*.0:1:25", Rule{Point: FragmentStall, Shard: Any, Replica: 0, Prob: 1, Stall: 25 * time.Millisecond}},
		{"fragment-error@1.1:1", Rule{Point: FragmentError, Shard: 1, Replica: 1, Prob: 1}},
		{"device-stall:0", Rule{Point: DeviceStall, Shard: Any, Replica: Any, Prob: 0}},
		{"resync-error@0.1:1", Rule{Point: ResyncError, Shard: 0, Replica: 1, Prob: 1}},
		{"resync-stall:0.5:20", Rule{Point: ResyncStall, Shard: Any, Replica: Any, Prob: 0.5, Stall: 20 * time.Millisecond}},
	}
	for _, c := range cases {
		got, err := ParseRule(c.spec)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("ParseRule(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
	bad := []string{
		"", "fragment-stall", "bogus-point:1", "fragment-stall:2",
		"fragment-stall:x", "fragment-stall:1:-5", "fragment-stall@-1:1",
		"fragment-stall@0.q:1", "fragment-stall:1:50:9",
		"fragment-stall:NaN", "fragment-stall:1:9223372036855",
	}
	for _, spec := range bad {
		if _, err := ParseRule(spec); err == nil {
			t.Fatalf("ParseRule(%q) accepted a bad spec", spec)
		}
	}
}

// FuzzParseRules: the -fault grammar accepts only rules the injector can
// honor — a known failpoint, a probability in [0, 1], a stall that is not
// negative, and scopes no lower than Any — and rejects the rest with an
// error, never a panic. The committed corpus holds a NaN probability and
// a stall that overflowed time.Duration to a negative one.
func FuzzParseRules(f *testing.F) {
	for _, spec := range []string{
		"fragment-stall:0.2", "fragment-stall@*.0:1:25, append-error@2:0.5", "resync-stall:0.5:20",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, specs string) {
		rules, err := ParseRules(specs)
		if err != nil {
			return
		}
		for _, r := range rules {
			switch r.Point {
			case FragmentError, FragmentStall, AppendError, DeviceStall, ResyncError, ResyncStall:
			default:
				t.Fatalf("%q: unknown failpoint %q accepted", specs, r.Point)
			}
			if !(r.Prob >= 0 && r.Prob <= 1) {
				t.Fatalf("%q: probability %v accepted", specs, r.Prob)
			}
			if r.Stall < 0 {
				t.Fatalf("%q: negative stall %v accepted", specs, r.Stall)
			}
			if r.Shard < Any || r.Replica < Any {
				t.Fatalf("%q: scope %d.%d accepted", specs, r.Shard, r.Replica)
			}
		}
	})
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("fragment-stall:0.2, append-error@1:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Point != FragmentStall || rules[1].Shard != 1 {
		t.Fatalf("ParseRules = %+v", rules)
	}
	if got, err := ParseRules("  "); err != nil || got != nil {
		t.Fatalf("empty spec list: %v %v", got, err)
	}
	if _, err := ParseRules("fragment-stall:0.2,nope:1"); err == nil {
		t.Fatal("bad member accepted")
	}
}

func TestScopeMatching(t *testing.T) {
	in := New(Config{Seed: 7, Rules: []Rule{
		{Point: FragmentError, Shard: 1, Replica: 0, Prob: 1},
	}})
	if err := in.Fail(FragmentError, 0, 0); err != nil {
		t.Fatalf("wrong shard fired: %v", err)
	}
	if err := in.Fail(FragmentError, 1, 1); err != nil {
		t.Fatalf("wrong replica fired: %v", err)
	}
	if err := in.Fail(AppendError, 1, 0); err != nil {
		t.Fatalf("wrong point fired: %v", err)
	}
	err := in.Fail(FragmentError, 1, 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("matching site did not fire: %v", err)
	}
	if got := in.Fired(FragmentError); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

// TestResyncPointsFireIndependently pins the resync failpoints' counter
// slots: firing one must not bleed into any other point's Fired count.
func TestResyncPointsFireIndependently(t *testing.T) {
	in := New(Config{Seed: 3, Rules: []Rule{
		{Point: ResyncError, Shard: Any, Replica: Any, Prob: 1},
		{Point: ResyncStall, Shard: Any, Replica: Any, Prob: 1, Stall: time.Millisecond},
	}})
	if err := in.Fail(ResyncError, 2, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed resync-error did not fire: %v", err)
	}
	if err := in.Stall(context.Background(), ResyncStall, 0, 1); err != nil {
		t.Fatalf("completed resync stall returned error: %v", err)
	}
	if got := in.Fired(ResyncError); got != 1 {
		t.Fatalf("Fired(resync-error) = %d, want 1", got)
	}
	if got := in.Fired(ResyncStall); got != 1 {
		t.Fatalf("Fired(resync-stall) = %d, want 1", got)
	}
	for _, p := range []Point{FragmentError, FragmentStall, AppendError, DeviceStall} {
		if got := in.Fired(p); got != 0 {
			t.Fatalf("Fired(%s) = %d, want 0 (resync counters bled)", p, got)
		}
	}
}

func TestDeterministicSequence(t *testing.T) {
	run := func() []bool {
		in := New(Config{Seed: 42, Rules: []Rule{
			{Point: FragmentError, Shard: Any, Replica: Any, Prob: 0.5},
		}})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fail(FragmentError, 0, 0) != nil
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged across identical runs", i)
		}
		if a[i] {
			fired++
		}
	}
	// p=0.5 over 64 draws: both outcomes must appear.
	if fired == 0 || fired == len(a) {
		t.Fatalf("degenerate fire count %d/64 at p=0.5", fired)
	}
	// A different seed must produce a different schedule.
	in2 := New(Config{Seed: 43, Rules: []Rule{
		{Point: FragmentError, Shard: Any, Replica: Any, Prob: 0.5},
	}})
	same := true
	for i := range a {
		if (in2.Fail(FragmentError, 0, 0) != nil) != a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical schedules")
	}
}

// TestDrawsFollowSiteNotInterleaving: each (point, shard, replica) site
// draws from its own ordinal sequence, so the same per-site calls fire
// on the same calls however the sites interleave — three concurrent
// fragments of one scatter get one schedule whichever runs first.
func TestDrawsFollowSiteNotInterleaving(t *testing.T) {
	type call struct {
		p              Point
		shard, replica int
	}
	var sites []call
	for shard := 0; shard < 3; shard++ {
		for replica := 0; replica < 2; replica++ {
			sites = append(sites, call{FragmentStall, shard, replica}, call{FragmentError, shard, replica})
		}
	}
	const perSite = 40
	run := func(order []call) map[call][]bool {
		in := New(Config{Seed: 42, Rules: []Rule{
			{Point: FragmentError, Shard: Any, Replica: Any, Prob: 0.2},
			{Point: FragmentStall, Shard: Any, Replica: Any, Prob: 0.2, Stall: time.Nanosecond},
		}})
		out := make(map[call][]bool)
		for _, c := range order {
			var fired bool
			if c.p == FragmentError {
				fired = in.Fail(c.p, c.shard, c.replica) != nil
			} else {
				before := in.Fired(c.p)
				if err := in.Stall(context.Background(), c.p, c.shard, c.replica); err != nil {
					t.Fatal(err)
				}
				fired = in.Fired(c.p) > before
			}
			out[c] = append(out[c], fired)
		}
		return out
	}
	// Round-robin over the sites, against each site's calls in one run
	// with the sites in reverse order.
	var interleaved, grouped []call
	for i := 0; i < perSite; i++ {
		interleaved = append(interleaved, sites...)
	}
	for i := len(sites) - 1; i >= 0; i-- {
		for j := 0; j < perSite; j++ {
			grouped = append(grouped, sites[i])
		}
	}
	a, b := run(interleaved), run(grouped)
	total := 0
	for _, c := range sites {
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatalf("%v call %d fired=%v interleaved, %v grouped", c, i, a[c][i], b[c][i])
			}
			if a[c][i] {
				total++
			}
		}
	}
	if total == 0 || total == len(sites)*perSite {
		t.Fatalf("degenerate fire count %d/%d at p=0.2", total, len(sites)*perSite)
	}
}

func TestStallDelaysThenContinues(t *testing.T) {
	in := New(Config{Seed: 1, Rules: []Rule{
		{Point: FragmentStall, Shard: Any, Replica: Any, Prob: 1, Stall: 30 * time.Millisecond},
	}})
	start := time.Now()
	if err := in.Stall(context.Background(), FragmentStall, 0, 0); err != nil {
		t.Fatalf("completed stall returned error: %v", err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("stall returned after %v, want >= 30ms", el)
	}
	if got := in.Fired(FragmentStall); got != 1 {
		t.Fatalf("Fired = %d", got)
	}
}

func TestStallHonorsCancel(t *testing.T) {
	in := New(Config{Seed: 1, Rules: []Rule{
		{Point: FragmentStall, Shard: Any, Replica: Any, Prob: 1, Stall: 10 * time.Second},
	}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- in.Stall(ctx, FragmentStall, 0, 0) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled stall returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled stall did not unblock")
	}
}

// TestStallHoldsUntilReleased: a held stall outlasts any delay and
// returns nil once its Hold is closed; cancellation still ends it.
func TestStallHoldsUntilReleased(t *testing.T) {
	hold := make(chan struct{})
	in := New(Config{Seed: 1, Rules: []Rule{
		{Point: FragmentStall, Shard: Any, Replica: Any, Prob: 1, Stall: time.Millisecond, Hold: hold},
	}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceled := make(chan error, 1)
	go func() { canceled <- in.Stall(ctx, FragmentStall, 1, 0) }()
	done := make(chan error, 1)
	go func() { done <- in.Stall(context.Background(), FragmentStall, 0, 0) }()
	select {
	case err := <-done:
		t.Fatalf("held stall returned %v before its release", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled held stall returned %v", err)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("released stall returned %v", err)
	}
	if got := in.Fired(FragmentStall); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	// A shard-scoped certain rule ahead of a never-fire wildcard:
	// scoped sites fire, others fall through to the p=0 rule and don't.
	in := New(Config{Seed: 9, Rules: []Rule{
		{Point: FragmentStall, Shard: 0, Replica: Any, Prob: 1, Stall: time.Millisecond},
		{Point: FragmentStall, Shard: Any, Replica: Any, Prob: 0},
	}})
	if err := in.Stall(context.Background(), FragmentStall, 1, 0); err != nil {
		t.Fatalf("p=0 wildcard fired: %v", err)
	}
	if got := in.Fired(FragmentStall); got != 0 {
		t.Fatalf("Fired = %d, want 0", got)
	}
	if err := in.Stall(context.Background(), FragmentStall, 0, 1); err != nil {
		t.Fatalf("scoped stall errored: %v", err)
	}
	if got := in.Fired(FragmentStall); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}
