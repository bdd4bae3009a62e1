package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// TestConcurrentAppendsKeepReplicasIDOrdered: concurrent /append
// requests against a warm row cache, at N=3 with one and two replicas,
// leave every replica's snapshot strictly ascending by id, and a reopen
// loads the same rows in the same order.
func TestConcurrentAppendsKeepReplicasIDOrdered(t *testing.T) {
	const base, writers, reqs, batch = 60, 4, 8, 4
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			sdb, err := core.OpenShardedReplicas(dir, 3, r, exec.New(exec.CPU))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sdb.CreateCollection(shardTestCol, synthSchema())
			if err != nil {
				t.Fatal(err)
			}
			fillSynth(t, sc.Append, base)
			// Reopen, then warm every replica's row cache from its bucket.
			if err := sdb.Close(); err != nil {
				t.Fatal(err)
			}
			if sdb, err = core.OpenShardedReplicas(dir, 3, r, exec.New(exec.CPU)); err != nil {
				t.Fatal(err)
			}
			if sc, err = sdb.Collection(shardTestCol); err != nil {
				t.Fatal(err)
			}
			svc, err := NewSharded(sdb, Config{Workers: writers}) // one append slot per writer
			if err != nil {
				t.Fatal(err)
			}
			h := svc.Handler()
			for i := 0; i < sc.Shards(); i++ {
				for j := 0; j < r; j++ {
					if _, err := sc.Replica(i, j).Current(); err != nil {
						t.Fatal(err)
					}
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for q := 0; q < reqs; q++ {
						req := AppendRequest{Collection: shardTestCol}
						for k := 0; k < batch; k++ {
							req.Patches = append(req.Patches, specFromPatch(synthPatch(base+(w*reqs+q)*batch+k)))
						}
						body, _ := json.Marshal(req)
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", bytes.NewReader(body)))
						if rec.Code != http.StatusOK {
							t.Errorf("append: %d %s", rec.Code, rec.Body)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			svc.Close()

			want := base + writers*reqs*batch
			ids := replicaIDs(t, sdb, r, "loaded")
			if n := len(ids[0][0]) + len(ids[1][0]) + len(ids[2][0]); n != want {
				t.Fatalf("%d rows, want %d", n, want)
			}
			if err := sdb.Close(); err != nil {
				t.Fatal(err)
			}
			if sdb, err = core.OpenShardedReplicas(dir, 3, r, exec.New(exec.CPU)); err != nil {
				t.Fatal(err)
			}
			defer sdb.Close()
			reopened := replicaIDs(t, sdb, r, "reopened")
			for i := range ids {
				for j := range ids[i] {
					if !slices.Equal(reopened[i][j], ids[i][j]) {
						t.Errorf("shard %d replica %d: reopened rows differ from before the close", i, j)
					}
				}
			}
		})
	}
}

// replicaIDs returns every replica's snapshot ids, [shard][replica],
// failing unless each strictly ascends and equals its primary's.
func replicaIDs(t *testing.T, sdb *core.Sharded, r int, what string) [][][]core.PatchID {
	t.Helper()
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]core.PatchID, sc.Shards())
	for i := range out {
		for j := 0; j < r; j++ {
			snap, err := sc.Replica(i, j).Patches()
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]core.PatchID, len(snap))
			for k, p := range snap {
				ids[k] = p.ID
				if k > 0 && ids[k] <= ids[k-1] {
					t.Errorf("%s shard %d replica %d: row %d has id %d after %d", what, i, j, k, ids[k], ids[k-1])
				}
			}
			if j > 0 && !slices.Equal(ids, out[i][0]) {
				t.Errorf("%s shard %d replica %d: rows differ from the primary's", what, i, j)
			}
			out[i] = append(out[i], ids)
		}
	}
	return out
}
