package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
)

// batchSchema tags every row with the batch that committed it.
var batchSchema = Schema{Fields: []Field{{Name: "batch", Kind: KindInt}, {Name: "emb", Kind: KindVec, VecDim: 2}}}

// batchRows is a batch of n rows tagged tag.
func batchRows(tag, n int) []*Patch {
	ps := make([]*Patch, n)
	for i := range ps {
		ps[i] = &Patch{Ref: Ref{Source: "gen", Frame: uint64(i)}, Meta: Metadata{
			"batch": IntV(int64(tag)),
			"emb":   VecV([]float32{float32(tag), float32(i)}),
		}}
	}
	return ps
}

// batchTag is the batch a row of batchSchema belongs to.
func batchTag(p *Patch) int64 {
	v, _ := p.Get("batch")
	return v.Int()
}

// TestBatchesWholePerShard: seeded writers at 3 shards x R in {1, 2}
// mix single Appends, AppendBatches of 1-64 rows (what /append commits)
// and a Materialize, whose chunks are batches too, while readers take
// Current() on every replica of every shard. Every snapshot holds each
// batch's part for its shard whole or not at all, with strictly
// ascending ids; a 64-row batch advances each shard it touches by
// exactly one version; a Close and reopen gives back the same rows.
func TestBatchesWholePerShard(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("R=%d/seed=%d", replicas, seed), func(t *testing.T) {
				runBatchGenerator(t, replicas, seed)
			})
		}
	}
}

func runBatchGenerator(t *testing.T, replicas int, seed int64) {
	const shards, writers, ops = 3, 3, 30
	dir := t.TempDir()
	s, err := OpenShardedReplicas(dir, shards, replicas, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	live, err := s.CreateCollection("live", batchSchema)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"live", "mat"}

	type seen struct {
		name  string
		shard int
		rows  []*Patch
	}
	var (
		mu    sync.Mutex
		snaps []seen
		done  atomic.Bool
		wg    sync.WaitGroup
		read  sync.WaitGroup
	)
	for r := 0; r < 2; r++ {
		read.Add(1)
		go func() {
			defer read.Done()
			for !done.Load() {
				for _, name := range names {
					sc, err := s.Collection(name)
					if err != nil {
						continue // mat is not created yet
					}
					for k := 0; k < shards; k++ {
						for j := 0; j < replicas; j++ {
							snap, err := sc.Replica(k, j).Current()
							if err != nil {
								t.Error(err)
								return
							}
							mu.Lock()
							snaps = append(snaps, seen{name, k, snap.Patches()})
							mu.Unlock()
						}
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*10 + int64(w)))
			for op := 0; op < ops; op++ {
				tag := 1 + w*ops + op
				var err error
				if rng.Intn(3) == 0 {
					err = live.Append(batchRows(tag, 1)[0])
				} else {
					_, err = live.AppendBatch(batchRows(tag, 1+rng.Intn(64)))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Materialize commits chunk c of its stream as batch -(c+1).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		var rows []*Patch
		for c := 0; c < 4; c++ {
			rows = append(rows, batchRows(-(c+1), commitChunk)...)
		}
		rows = append(rows, batchRows(-5, 1+rng.Intn(commitChunk-1))...)
		if _, err := s.Materialize("mat", batchSchema, FromPatches(rows)); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	done.Store(true)
	read.Wait()
	if t.Failed() {
		return
	}

	// Each batch's part for each shard, from the primaries' final rows.
	parts := map[string][]map[int64]int{}
	for _, name := range names {
		sc, err := s.Collection(name)
		if err != nil {
			t.Fatal(err)
		}
		parts[name] = make([]map[int64]int, shards)
		for k := range parts[name] {
			rows, err := sc.Shard(k).Patches()
			if err != nil {
				t.Fatal(err)
			}
			parts[name][k] = map[int64]int{}
			for _, p := range rows {
				parts[name][k][batchTag(p)]++
			}
		}
	}
	for _, sn := range snaps {
		checkAscending(t, fmt.Sprintf("%s shard %d", sn.name, sn.shard), sn.rows)
		held := map[int64]int{}
		for _, p := range sn.rows {
			held[batchTag(p)]++
		}
		for tag, n := range held {
			if want := parts[sn.name][sn.shard][tag]; n != want {
				t.Fatalf("%s shard %d: a snapshot of %d rows holds %d of batch %d's %d rows there",
					sn.name, sn.shard, len(sn.rows), n, tag, want)
			}
		}
	}
	if len(snaps) == 0 {
		t.Fatal("the readers took no snapshot")
	}

	// One 64-row batch: one version on each replica of each shard it
	// touches, none elsewhere. A shard's database issues every version
	// its collections take.
	versions := func() [][]uint64 {
		vs := make([][]uint64, shards)
		for k := range vs {
			for j := 0; j < replicas; j++ {
				vs[k] = append(vs[k], s.ReplicaDB(k, j).nextVer.Load())
			}
		}
		return vs
	}
	before := versions()
	ps := batchRows(0, 64)
	if n, err := live.AppendBatch(ps); err != nil || n != len(ps) {
		t.Fatalf("64-row batch: %d rows committed, %v", n, err)
	}
	touched := make([]bool, shards)
	for _, p := range ps {
		touched[s.ShardFor(p.ID)] = true
	}
	after := versions()
	for k := range after {
		for j := range after[k] {
			want := before[k][j]
			if touched[k] {
				want++
			}
			if after[k][j] != want || (touched[k] && live.Replica(k, j).Version() != want) {
				t.Errorf("shard %d replica %d: the 64-row batch moved version %d to %d, want %d",
					k, j, before[k][j], after[k][j], want)
			}
		}
	}

	// A Close and reopen gives back every replica's rows.
	held := map[string][][]Snapshot{}
	snapshots := func(name string) [][]Snapshot {
		sc, err := s.Collection(name)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]Snapshot, shards)
		for k := range out {
			for j := 0; j < replicas; j++ {
				snap, err := sc.Replica(k, j).Current()
				if err != nil {
					t.Fatal(err)
				}
				out[k] = append(out[k], snap)
			}
		}
		return out
	}
	for _, name := range names {
		held[name] = snapshots(name)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenShardedReplicas(dir, shards, replicas, exec.New(exec.CPU)); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		for k, reps := range snapshots(name) {
			for j, snap := range reps {
				assertSameSnapshot(t, fmt.Sprintf("%s shard %d replica %d", name, k, j), held[name][k][j], snap)
			}
		}
	}
}
