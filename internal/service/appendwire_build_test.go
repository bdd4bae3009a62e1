package service

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// sealers holds a collection for each schema a test builds /append
// batches against, in one database under a directory TestMain removes.
var sealers struct {
	mu   sync.Mutex
	dir  string
	db   *core.Sharded
	cols map[string]*core.ShardedCollection
}

func TestMain(m *testing.M) {
	code := m.Run()
	if sealers.db != nil {
		sealers.db.Close()
	}
	if sealers.dir != "" {
		os.RemoveAll(sealers.dir)
	}
	if testEnv != nil {
		testEnv.Close()
		os.RemoveAll(testEnv.Dir)
	}
	os.Exit(code)
}

// patches builds the decoded batch against schema, as the commit path
// builds it against a collection's: through the Sealer of a collection
// of schema, then validating every row, as AppendBatch does before it
// commits any.
func (d *appendDecoder) patches(schema core.Schema) ([]*core.Patch, error) {
	col, err := sealerCollection(schema)
	if err != nil {
		return nil, err
	}
	ps, err := d.build(col.Sealer(d.count()))
	if err != nil {
		return nil, err
	}
	for i, p := range ps {
		if err := schema.ValidatePatch(p); err != nil {
			return nil, fmt.Errorf("service: append patch %d: %w", i, err)
		}
	}
	return ps, nil
}

// sealerCollection returns the collection of schema, creating the
// database or the collection on first use.
func sealerCollection(schema core.Schema) (*core.ShardedCollection, error) {
	key := fmt.Sprintf("%+v", schema)
	sealers.mu.Lock()
	defer sealers.mu.Unlock()
	if col, ok := sealers.cols[key]; ok {
		return col, nil
	}
	if sealers.db == nil {
		dir, err := os.MkdirTemp("", "sealers")
		if err != nil {
			return nil, err
		}
		sealers.dir = dir
		db, err := core.OpenSharded(dir, 1, exec.New(exec.CPU))
		if err != nil {
			return nil, err
		}
		sealers.db, sealers.cols = db, make(map[string]*core.ShardedCollection)
	}
	col, err := sealers.db.CreateCollection("c"+strconv.Itoa(len(sealers.cols)), schema)
	if err != nil {
		return nil, err
	}
	sealers.cols[key] = col
	return col, nil
}
