// PCSearch: the paper's q1 and q5 over a personal-computer image corpus —
// near-duplicate detection with a ball-tree index over matching features,
// and string lookup over OCR output.
//
//	go run ./examples/pcsearch
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/vision"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "deeplens-pcsearch")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := dataset.Default()
	cfg.PCImages = 120
	pc := dataset.NewPC(cfg)
	imgs := make([]*codec.Image, len(pc.Images))
	for i := range pc.Images {
		imgs[i] = pc.Images[i].Image
	}

	db, err := core.Open(filepath.Join(dir, "deeplens.db"), exec.New(exec.CPU))
	if err != nil {
		return err
	}
	defer db.Close()

	// ETL 1: whole-image patches with the near-duplicate matching feature.
	it := core.FromImages("pc", imgs)
	it = core.GridHistogramTransformer(3, it)
	it = core.DropData(it)
	images, err := db.Materialize("pc.images", core.Schema{
		Data: core.Pixels(0, 0),
		Fields: []core.Field{
			{Name: "frameno", Kind: core.KindInt},
			{Name: "ghist", Kind: core.KindVec, VecDim: 64},
		},
	}, it)
	if err != nil {
		return err
	}

	// ETL 2: OCR words from every image.
	wordsIt := core.OCRGenerator(vision.NewDocumentOCR(), core.FromImages("pc", imgs))
	wordsIt = core.DropData(wordsIt)
	words, err := db.Materialize("pc.words", core.OCRSchema(), wordsIt)
	if err != nil {
		return err
	}
	fmt.Printf("corpus: %d images, %d recognized words\n", images.Len(), words.Len())

	// q1: near-duplicates via a ball-tree index on the matching feature
	// (the collection's exact-mode vector index).
	snap, err := images.Current()
	if err != nil {
		return err
	}
	idx, err := snap.VectorIndex("ghist")
	if err != nil {
		return err
	}
	pairs, _, err := core.SimilarityJoinVecIndexed(snap.Patches(), idx, core.SimilarityJoinOpts{
		LeftField: "ghist", RightField: "ghist", Eps: 0.066, DedupUnordered: true})
	if err != nil {
		return err
	}
	fmt.Printf("q1: %d near-duplicate pairs found (%d planted by the generator):\n",
		len(pairs), len(pc.NearDupPairs))
	for i, pr := range pairs {
		fmt.Printf("  image %d ~ image %d\n", pr[0].Ref.Frame, pr[1].Ref.Frame)
		if i >= 4 {
			break
		}
	}

	// q5: first image containing a target string.
	target := pc.Vocabulary[2]
	snap, err = words.Current()
	if err != nil {
		return err
	}
	pred := core.Pred{Field: "text", V: core.StrV(target)}
	first := core.Keep{Kind: core.KeepTop, N: 1, Field: "frameno"}
	hit, err := snap.Select(context.Background(), pred, core.FilterColumnScan, first)
	if err != nil {
		return err
	}
	if len(hit.Sel) == 0 {
		fmt.Printf("q5: %q not found in the corpus\n", target)
		return nil
	}
	fv, _ := snap.Row(int(hit.Sel[0])).Get("frameno")
	frame := fv.Int()
	fmt.Printf("q5: first image containing %q is image %d", target, frame)
	// Verify against generator ground truth.
	for _, w := range pc.Images[frame].Words {
		if w == target {
			fmt.Print(" (verified against ground truth)")
			break
		}
	}
	fmt.Println()
	return nil
}
