// Sharding: horizontal partitioning with scatter-gather queries.
//
// A synthetic detection collection is partitioned across four DB shards
// by a deterministic hash of each patch id. The serving layer plans
// every query once, runs the plan fragment on all shards in parallel
// (similarity joins additionally fan out one task per shard pair), and
// merges at the top: counts sum, ordered top-k rows k-way heap-merge,
// identity clusters re-cluster over the union of pair lists.
//
// The walkthrough shows the scatter plans, the per-shard storage
// breakdown, cache invalidation riding on the composite version, and
// that a plain DB is simply the one-shard case: service.New runs the
// same pipeline at fan-out 1, so it and a one-shard NewSharded answer
// byte-identically.
//
//	go run ./examples/sharding
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/service"
)

const col = "city.dets"

func schema() core.Schema {
	return core.Schema{
		Data: core.Pixels(0, 0),
		Fields: []core.Field{
			{Name: "label", Kind: core.KindStr},
			{Name: "score", Kind: core.KindFloat},
			{Name: "emb", Kind: core.KindVec, VecDim: 8},
		},
	}
}

// patch generates detection i: one of five embedding clusters (so
// similarity joins find identities) and low-cardinality labels/scores
// (so filters and order-bys tie across shards).
func patch(i int) *core.Patch {
	emb := make([]float32, 8)
	for d := range emb {
		emb[d] = float32((i%5)*10) + float32((i/5)%4)*0.02
	}
	return &core.Patch{
		Ref: core.Ref{Source: "cam", Frame: uint64(i)},
		Meta: core.Metadata{
			"label": core.StrV([]string{"car", "pedestrian", "bus"}[i%3]),
			"score": core.FloatV(float64(i%10) / 10),
			"emb":   core.VecV(emb),
		},
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "deeplens-sharding")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	const rows = 600

	// ---- 1. partition a collection across four shards ----
	sdb, err := core.OpenSharded(filepath.Join(dir, "sharded"), 4, exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer sdb.Close()
	sc, err := sdb.CreateCollection(col, schema())
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		if err := sc.Append(patch(i)); err != nil {
			return err
		}
	}
	fmt.Printf("ingested %d detections across %d shards:\n", sc.Len(), sdb.NumShards())
	for _, si := range sdb.ShardInfos() {
		fmt.Printf("  shard %d: %d rows\n", si.Shard, si.Rows)
	}

	svc, err := service.NewSharded(sdb, service.Config{Workers: 2})
	if err != nil {
		return err
	}
	defer svc.Close()

	// ---- 2. scatter-gather query shapes ----
	str := func(s string) *string { return &s }
	fmt.Println("\nscatter-gather plans:")
	for _, q := range []struct {
		what string
		req  service.Request
	}{
		{"count pedestrians (scan fans out, counts sum)",
			service.Request{Collection: col, Filter: &service.FilterSpec{Field: "label", Str: str("pedestrian")}}},
		{"top-5 by score (per-shard sort, k-way heap merge)",
			service.Request{Collection: col, OrderBy: "score", Desc: true, Limit: 5}},
		{"similarity self-join (4 local + 6 cross-shard tasks)",
			service.Request{Collection: col, SimJoin: &service.SimJoinSpec{Field: "emb", Eps: 0.2}}},
		{"distinct identities (pairs re-cluster at the gather stage)",
			service.Request{Collection: col, SimJoin: &service.SimJoinSpec{Field: "emb", Eps: 0.2, MinCluster: 2}, Distinct: true}},
	} {
		r, err := svc.Query(ctx, q.req)
		if err != nil {
			return err
		}
		fmt.Printf("  %-62s value=%-5d\n    plan: %s\n", q.what, r.Value, r.Plan)
		for _, row := range r.Rows {
			id, _ := row.Get("_id")
			score, _ := row.Get("score")
			fmt.Printf("    row _id=%v score=%v\n", id, score)
		}
	}

	// ---- 3. composite-version cache invalidation ----
	countReq := service.Request{Collection: col}
	r1, err := svc.Query(ctx, countReq)
	if err != nil {
		return err
	}
	r2, err := svc.Query(ctx, countReq)
	if err != nil {
		return err
	}
	if err := sc.Append(patch(rows)); err != nil { // lands on exactly one shard
		return err
	}
	r3, err := svc.Query(ctx, countReq)
	if err != nil {
		return err
	}
	fmt.Printf("\ncache invalidation: count=%d (hit=%v) -> append one patch -> count=%d (hit=%v)\n",
		r2.Value, r2.CacheHit, r3.Value, r3.CacheHit)
	if r1.Fingerprint == r3.Fingerprint {
		return fmt.Errorf("composite version did not move")
	}

	// ---- 4. fan-out 1: service.New(db) and NewSharded(1 shard) are the
	// same executor, so they agree byte for byte ----
	db, err := core.Open(filepath.Join(dir, "plain.db"), exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer db.Close()
	pc, err := db.CreateCollection(col, schema())
	if err != nil {
		return err
	}
	one, err := core.OpenSharded(filepath.Join(dir, "one"), 1, exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer one.Close()
	oc, err := one.CreateCollection(col, schema())
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		if err := pc.Append(patch(i)); err != nil {
			return err
		}
		if err := oc.Append(patch(i)); err != nil {
			return err
		}
	}
	plainSvc, err := service.New(db, service.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer plainSvc.Close()
	oneSvc, err := service.NewSharded(one, service.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer oneSvc.Close()
	req := service.Request{Collection: col, SimJoin: &service.SimJoinSpec{Field: "emb", Eps: 0.2, MinCluster: 2}, Distinct: true}
	pr, err := plainSvc.Query(ctx, req)
	if err != nil {
		return err
	}
	or, err := oneSvc.Query(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("\nfan-out 1: New(db)        value=%d plan=%q\n           NewSharded(1)  value=%d plan=%q\n",
		pr.Value, pr.Plan, or.Value, or.Plan)
	if pr.Value != or.Value || pr.Plan != or.Plan || pr.Fingerprint != or.Fingerprint {
		return fmt.Errorf("New(db) and NewSharded over one shard diverged")
	}

	st := svc.Stats()
	fmt.Printf("\nservice stats: %d scatter queries -> %d tasks, merge %.2f ms total\n",
		st.ScatterQueries, st.ScatterTasks, st.MergeTimeMS)
	return nil
}
