//go:build goexperiment.synctest

package exec

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"
)

// Ablations of the batcher's idle flush and its idle probe, and sweeps
// of its window and its batch bound, run in testing/synctest bubbles
// over 20 seeds. The simulated GPU's launch charge is 3 ms, so charge
// sleeps (it spins below 1 ms) and a launch takes synthetic time; the
// flush window scales with it, 5 ms keeping flushWindow's ratio to the
// default 30µs charge. Every arrival and CPU gap is drawn to the
// nanosecond from one seed, so no two submitters act at one synthetic
// instant and each table prints the same on every run:
//
//	GOEXPERIMENT=synctest go test -run 'Ablation|Sweep' -v ./internal/exec

const ablationLaunch = 3 * time.Millisecond

// ablationWindow is flushWindow scaled to the ablation's launch charge.
var ablationWindow = flushWindow * ablationLaunch / DefaultGPUProfile().LaunchLatency

// ablationTask is one query's kernel work: it arrives and fans out into
// one concurrent submitter per gap list, as a join's tasks do. Each
// submitter runs a CPU gap before each of its kernels and one after the
// last.
type ablationTask struct {
	arrive time.Duration // offset from the run's start
	subs   [][]time.Duration
}

// ablationTasks draws n tasks of fan submitters of r kernels each from
// seed: Poisson arrivals with the given mean spacing and CPU gaps
// uniform in [0.4 ms, 2 ms).
func ablationTasks(seed uint64, n, fan, r int, spacing time.Duration) []ablationTask {
	rng := rand.New(rand.NewPCG(seed, 2))
	tasks := make([]ablationTask, n)
	at := time.Duration(0)
	for i := range tasks {
		at += time.Duration(rng.ExpFloat64() * float64(spacing))
		subs := make([][]time.Duration, fan)
		for s := range subs {
			subs[s] = make([]time.Duration, r+1)
			for j := range subs[s] {
				subs[s][j] = 400*time.Microsecond + time.Duration(rng.Int64N(int64(1600*time.Microsecond)))
			}
		}
		tasks[i] = ablationTask{arrive: at, subs: subs}
	}
	return tasks
}

// flushRun is one arm's outcome.
type flushRun struct {
	launches          int64
	fusion            float64
	waitMean, waitP99 time.Duration
	taskMean, taskP99 time.Duration
}

// flushArm is one idle-flush policy. register turns on the idle flush
// (each task is a registered submitter); probe installs the service's
// idle probe, which holds partial batches while the queue is non-empty.
type flushArm struct {
	name            string
	register, probe bool
}

// runFlushArm serves tasks on k workers that share one batcher bounded
// at sharers submitters, with the given window, taking tasks from a
// queue the way the service's workers do. A task's first submitter runs
// on its worker and the others on one goroutine each, as a join's tasks
// do. Kernels alternate between two GEMM shapes, as a network's layers
// do.
func runFlushArm(tasks []ablationTask, k, sharers int, window time.Duration, arm flushArm) flushRun {
	// The result leaves the bubble on a channel made outside it: the
	// race detector sees no ordering from synctest.Run's return.
	out := make(chan flushRun, 1)
	synctest.Run(func() {
		type queued struct {
			task ablationTask
			enq  time.Time
		}
		queue := make(chan queued, len(tasks))
		var idle func() bool
		if arm.probe {
			idle = func() bool { return len(queue) == 0 }
		}
		b := NewBatcher(NewGPU(GPUProfile{LaunchLatency: ablationLaunch, BytesPerSecond: 6e9}), sharers, idle)
		b.window = window
		weights := [2][]float32{make([]float32, 16*16), make([]float32, 32*8)}
		shapes := [2][2]int{{16, 16}, {32, 8}} // (k, n)

		var mu sync.Mutex
		var waits, spans []time.Duration
		submit := func(gaps []time.Duration) {
			if arm.register {
				b.BeginSubmitter()
			}
			for j, gap := range gaps[:len(gaps)-1] {
				time.Sleep(gap)
				s := shapes[j%2]
				a, c := make([]float32, 4*s[0]), make([]float32, 4*s[1])
				var rec kernelRecord
				b.gemm(4, s[1], s[0], a, weights[j%2], c, &rec)
				mu.Lock()
				waits = append(waits, rec.wait)
				mu.Unlock()
			}
			time.Sleep(gaps[len(gaps)-1])
			if arm.register {
				b.EndSubmitter()
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := range queue {
					var fan sync.WaitGroup
					for _, gaps := range q.task.subs[1:] {
						fan.Add(1)
						go func() {
							defer fan.Done()
							submit(gaps)
						}()
					}
					submit(q.task.subs[0])
					fan.Wait()
					mu.Lock()
					spans = append(spans, time.Since(q.enq))
					mu.Unlock()
				}
			}()
		}
		start := time.Now()
		for _, task := range tasks {
			time.Sleep(start.Add(task.arrive).Sub(time.Now()))
			queue <- queued{task: task, enq: time.Now()}
		}
		close(queue)
		wg.Wait()

		st := b.BatcherStats()
		run := flushRun{launches: st.Launches, fusion: st.FusionFactor()}
		run.waitMean, run.waitP99 = meanP99(waits)
		run.taskMean, run.taskP99 = meanP99(spans)
		out <- run
	})
	return <-out
}

// meanP99 returns the mean and the nearest-rank 99th percentile.
func meanP99(ds []time.Duration) (time.Duration, time.Duration) {
	slices.Sort(ds)
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	i := (len(ds)*99 + 99) / 100
	return sum / time.Duration(len(ds)), ds[i-1]
}

// seedWins counts the seeds at which a beats b, lower being better.
func seedWins[T float64 | time.Duration](a, b []T) int {
	n := 0
	for i := range a {
		if a[i] < b[i] {
			n++
		}
	}
	return n
}

// mean is the arithmetic mean of xs.
func mean[T float64 | time.Duration](xs []T) T {
	var sum T
	for _, x := range xs {
		sum += x
	}
	return sum / T(len(xs))
}

// TestIdleFlushAblation: 200 tasks of 6 kernels on k workers sharing
// one GPU bounded at k submitters, at each of 20 seeds. (At k = 1, a
// bound of 1 launches every kernel at once, so every arm runs the same
// schedule.) Each arm adds
// one mechanism to the arm before it: the idle flush, then the queue
// probe. The table gives each arm's means over the seeds and how many
// seeds it beats the arm before it at. The rule, fixed before the sweep
// ran: a mechanism stays only where it beats the arm without it at 15
// or more of the 20 seeds on launches or on mean task time.
func TestIdleFlushAblation(t *testing.T) {
	const seeds, pass = 20, 15
	arms := []flushArm{
		{name: "off"},
		{name: "idle flush", register: true},
		{name: "idle flush + probe", register: true, probe: true},
	}
	var tab, vsOff strings.Builder
	tab.WriteString("| k | arm | launches | fusion | wait mean | task mean | task p99 | seeds won: launches | seeds won: task mean |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, k := range []int{2, 4, 8} {
		launches := make([][]float64, len(arms))
		tasks := make([][]time.Duration, len(arms))
		for i, arm := range arms {
			var fusion float64
			var waits, p99s []time.Duration
			for seed := uint64(1); seed <= seeds; seed++ {
				r := runFlushArm(ablationTasks(seed, 200, 1, 6, 8*time.Millisecond), k, k, ablationWindow, arm)
				launches[i] = append(launches[i], float64(r.launches))
				tasks[i] = append(tasks[i], r.taskMean)
				fusion += r.fusion / seeds
				waits, p99s = append(waits, r.waitMean), append(p99s, r.taskP99)
			}
			wins := "– | –"
			if i > 0 {
				wins = fmt.Sprintf("%d | %d", seedWins(launches[i], launches[i-1]), seedWins(tasks[i], tasks[i-1]))
			}
			fmt.Fprintf(&tab, "| %d | %s | %.1f | %.3f | %v | %v | %v | %s |\n", k, arm.name,
				mean(launches[i]), fusion, mean(waits).Round(time.Microsecond),
				mean(tasks[i]).Round(time.Microsecond), mean(p99s).Round(time.Microsecond), wins)
		}
		won := func(i int) bool {
			return seedWins(launches[i], launches[i-1]) >= pass || seedWins(tasks[i], tasks[i-1]) >= pass
		}
		// The idle flush and the probe each win somewhere.
		if k == 8 && !won(1) {
			t.Errorf("k=%d: the idle flush does not beat off at %d seeds", k, pass)
		}
		if k == 4 && !won(2) {
			t.Errorf("k=%d: the probe does not beat the idle flush alone at %d seeds", k, pass)
		}
		fmt.Fprintf(&vsOff, "k=%d: %d and %d; ", k, seedWins(launches[2], launches[0]), seedWins(tasks[2], tasks[0]))
	}
	t.Log("seeds at which the service's idle flush + probe beats off on launches and on task mean: " + vsOff.String())
	t.Log("idle flush, 200 tasks x 6 kernels, launch 3ms, window 5ms, means over 20 seeds\n" + tab.String())
}

// TestFlushWindowSweep: the service's arm (idle flush + probe) on the
// idle-flush ablation's tasks at k = 2, 4 and 8, with the window at 1/2,
// 1, 5/3 and 3 launch charges, at each of 20 seeds. The rule, fixed
// before the sweep ran: the window stays at 5/3 of the charge unless
// another ratio beats 5/3 at 15 or more of the 20 seeds, on launches or
// on mean task time, at some k, and loses to it at 15 or more seeds on
// neither metric at any k. If several ratios qualify, the one beating
// 5/3 in the most (k, metric) cells wins, the shorter window on a tie.
// flushWindow must be the chosen ratio of the default launch charge.
func TestFlushWindowSweep(t *testing.T) {
	const seeds, pass = 20, 15
	ratios := [][2]int64{{1, 2}, {1, 1}, {5, 3}, {3, 1}} // window : charge
	const base = 2
	service := flushArm{register: true, probe: true}
	var tab strings.Builder
	tab.WriteString("| k | window | launches | fusion | wait mean | task mean | task p99 | seeds beating 5/3: launches | seeds beating 5/3: task mean | seeds losing to 5/3: launches | seeds losing to 5/3: task mean |\n|---|---|---|---|---|---|---|---|---|---|---|\n")
	beats := make([]int, len(ratios)) // (k, metric) cells won over 5/3
	loses := make([]bool, len(ratios))
	for _, k := range []int{2, 4, 8} {
		launches := make([][]float64, len(ratios))
		tasks := make([][]time.Duration, len(ratios))
		rows := make([]string, len(ratios))
		for i, r := range ratios {
			window := ablationLaunch * time.Duration(r[0]) / time.Duration(r[1])
			var fusion float64
			var waits, p99s []time.Duration
			for seed := uint64(1); seed <= seeds; seed++ {
				run := runFlushArm(ablationTasks(seed, 200, 1, 6, 8*time.Millisecond), k, k, window, service)
				launches[i] = append(launches[i], float64(run.launches))
				tasks[i] = append(tasks[i], run.taskMean)
				fusion += run.fusion / seeds
				waits, p99s = append(waits, run.waitMean), append(p99s, run.taskP99)
			}
			rows[i] = fmt.Sprintf("| %d | %d/%d (%v) | %.1f | %.3f | %v | %v | %v |", k, r[0], r[1], window,
				mean(launches[i]), fusion, mean(waits).Round(time.Microsecond),
				mean(tasks[i]).Round(time.Microsecond), mean(p99s).Round(time.Microsecond))
		}
		for i := range ratios {
			wl, wt := seedWins(launches[i], launches[base]), seedWins(tasks[i], tasks[base])
			ll, lt := seedWins(launches[base], launches[i]), seedWins(tasks[base], tasks[i])
			if i == base {
				fmt.Fprintf(&tab, "%s – | – | – | – |\n", rows[i])
				continue
			}
			fmt.Fprintf(&tab, "%s %d | %d | %d | %d |\n", rows[i], wl, wt, ll, lt)
			for _, won := range []int{wl, wt} {
				if won >= pass {
					beats[i]++
				}
			}
			loses[i] = loses[i] || ll >= pass || lt >= pass
		}
	}
	pick := base
	for i := range ratios {
		if beats[i] > 0 && !loses[i] && (pick == base || beats[i] > beats[pick]) {
			pick = i
		}
	}
	t.Logf("flush window sweep, service arm, 200 tasks x 6 kernels, launch 3ms, means over 20 seeds; the rule picks %d/%d\n%s",
		ratios[pick][0], ratios[pick][1], tab.String())
	if charge := DefaultGPUProfile().LaunchLatency; flushWindow*time.Duration(ratios[pick][1]) != charge*time.Duration(ratios[pick][0]) {
		t.Errorf("flushWindow %v is not %d/%d of the %v launch charge", flushWindow, ratios[pick][0], ratios[pick][1], charge)
	}
}

// TestBatchBoundSweep: tasks that fan out into 6 concurrent submitters,
// as a similarity join over 3 shards does, on k = 2, 4 and 8 workers
// sharing one GPU under the service's arm, at each of 20 seeds. It
// compares the bound that counts every submitter the tasks place on the
// device, 6k, with the one it replaced, min(3k, 16), which counted one
// per shard and capped at 16 (binding at k = 8). The rule, fixed before
// the sweep ran: 6k replaces min(3k, 16) if it loses to it at 15 or more
// of the 20 seeds on neither launches nor mean task time, at any k. It
// loses mean task time at k = 2, so the service keeps min(3k, 16)
// (deviceBounds in internal/service); the test fails if that verdict
// turns.
func TestBatchBoundSweep(t *testing.T) {
	const seeds, pass, fan = 20, 15, 6
	service := flushArm{register: true, probe: true}
	var tab strings.Builder
	tab.WriteString("| k | bound | launches | fusion | wait mean | task mean | task p99 | seeds beating min(3k, 16): launches | seeds beating min(3k, 16): task mean |\n|---|---|---|---|---|---|---|---|---|\n")
	lost := false
	for _, k := range []int{2, 4, 8} {
		bounds := []int{min(3*k, 16), fan * k}
		launches := make([][]float64, len(bounds))
		tasks := make([][]time.Duration, len(bounds))
		for i, bound := range bounds {
			var fusion float64
			var waits, p99s []time.Duration
			for seed := uint64(1); seed <= seeds; seed++ {
				r := runFlushArm(ablationTasks(seed, 100, fan, 3, 16*time.Millisecond), k, bound, ablationWindow, service)
				launches[i] = append(launches[i], float64(r.launches))
				tasks[i] = append(tasks[i], r.taskMean)
				fusion += r.fusion / seeds
				waits, p99s = append(waits, r.waitMean), append(p99s, r.taskP99)
			}
			wins := "– | –"
			if i > 0 {
				wins = fmt.Sprintf("%d | %d", seedWins(launches[i], launches[0]), seedWins(tasks[i], tasks[0]))
			}
			fmt.Fprintf(&tab, "| %d | %d | %.1f | %.3f | %v | %v | %v | %s |\n", k, bound,
				mean(launches[i]), fusion, mean(waits).Round(time.Microsecond),
				mean(tasks[i]).Round(time.Microsecond), mean(p99s).Round(time.Microsecond), wins)
		}
		lost = lost || seedWins(launches[0], launches[1]) >= pass || seedWins(tasks[0], tasks[1]) >= pass
	}
	if !lost {
		t.Errorf("the bound 6k no longer loses to min(3k, 16) at %d seeds at any k: the rule now picks 6k", pass)
	}
	t.Log("batch bound sweep, service arm, 100 tasks x 6 submitters x 3 kernels, launch 3ms, window 5ms, means over 20 seeds\n" + tab.String())
}
