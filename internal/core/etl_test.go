package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/exec"
	"repro/internal/kv"
	"repro/internal/video"
	"repro/internal/vision"
)

// renderScene builds a small traffic scene for ETL tests.
func renderScene(seed int64) *vision.Scene {
	rng := rand.New(rand.NewSource(seed))
	const w, h = 128, 72
	horizon := h / 4
	sc := &vision.Scene{W: w, H: h, Horizon: horizon, Focal: float64(h) / 3,
		Background: vision.NewTrafficBackground(w, h, horizon)}
	for i := 0; i < 3; i++ {
		o := vision.NewObject(uint64(i+1), vision.ClassCar, rng)
		o.X0 = float64(10 + i*25)
		o.VX = 0.5
		o.Z0 = 4 + float64(i)
		o.Appear, o.Vanish = 0, 1000
		sc.Objects = append(sc.Objects, o)
	}
	return sc
}

func TestLoadVideoPushdown(t *testing.T) {
	sc := renderScene(1)
	st, err := kv.Open(filepath.Join(t.TempDir(), "v.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b, _ := st.Bucket("vid")
	ff := video.NewFrameFile(b, true, codec.QualityHigh)
	if err := video.Ingest(ff, 30, func(i uint64) *codec.Image {
		img, _ := sc.Render(int(i))
		return img
	}); err != nil {
		t.Fatal(err)
	}
	ps, err := DrainPatches(LoadVideo("vid", ff, FrameRange{Lo: 5, Hi: 12}))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 7 {
		t.Fatalf("loaded %d frames, want 7", len(ps))
	}
	for i, p := range ps {
		if p.Ref.Frame != uint64(5+i) || p.Ref.Source != "vid" {
			t.Fatalf("frame %d: ref %+v", i, p.Ref)
		}
		if metaVal(p, "frameno").Int() != int64(5+i) {
			t.Fatal("frameno metadata wrong")
		}
		if p.Data == nil || p.Data.Shape[0] != 72 || p.Data.Shape[1] != 128 {
			t.Fatalf("payload shape %v", p.Data.Shape)
		}
	}
	// Early close does not deadlock the producer goroutine.
	it := LoadVideo("vid", ff, FrameRange{})
	if _, _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDetectGeneratorLineageAndSchema(t *testing.T) {
	sc := renderScene(2)
	img, gts := sc.Render(0)
	frame := &Patch{ID: 77, Ref: Ref{Source: "cam", Frame: 0}, Data: ImageToTensor(img),
		Meta: Metadata{"frameno": IntV(0)}}
	det := vision.NewDetector(exec.New(exec.CPU), 42)
	ps, err := DrainPatches(DetectGenerator(det, NewSliceIterator([]Tuple{{frame}})))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatalf("no detections (scene has %d objects)", len(gts))
	}
	schema := DetectionSchema()
	for _, p := range ps {
		if p.Ref.Parent != 77 || p.Ref.Source != "cam" {
			t.Fatalf("lineage broken: %+v", p.Ref)
		}
		p.Meta["_source"] = StrV(p.Ref.Source)
		p.Meta["_frame"] = IntV(0)
		if err := schema.ValidatePatch(p); err != nil {
			t.Fatalf("generator output fails its own schema: %v", err)
		}
		if p.Data == nil {
			t.Fatal("detection patch lost its crop")
		}
	}
}

// TestTransformersLeaveCommittedRowsAlone: transformers fed a
// collection's Scan emit the committed rows' data with their new
// fields, and the committed rows themselves gain no field and keep
// their payload.
func TestTransformersLeaveCommittedRowsAlone(t *testing.T) {
	sc := renderScene(3)
	db := openDB(t)
	schema := Schema{Data: Pixels(0, 0), Fields: []Field{{Name: "frameno", Kind: KindInt}}}
	col, err := db.CreateCollection("pixels", schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		img, _ := sc.Render(i)
		p := &Patch{Ref: Ref{Source: "cam", Frame: uint64(i)}, Data: ImageToTensor(img),
			Meta: Metadata{"frameno": IntV(int64(i)), "bbox": RectV(10, 30, 40, 60)}}
		if err := col.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	dev := exec.New(exec.CPU)
	rows, _ := col.Patches()
	want := make([][]byte, len(rows))
	for i, p := range rows {
		want[i] = p.Marshal()
	}
	it := HistogramTransformer(FromPatches(rows))
	it = GridHistogramTransformer(3, it)
	it = EmbedTransformer(vision.NewEmbedder(dev, 42), it)
	it = DepthTransformer(vision.NewDepthModel(dev, sc.Horizon, sc.Focal, 42), it)
	it = DropData(it)
	out, err := DrainPatches(it)
	if err != nil || len(out) != len(rows) {
		t.Fatalf("%d patches, %v", len(out), err)
	}
	for i, p := range out {
		if p.ID != rows[i].ID || p.Ref != rows[i].Ref || p.Data != nil {
			t.Fatalf("output %d: id %d ref %+v payload %v", i, p.ID, p.Ref, p.Data != nil)
		}
		for _, k := range []string{"hist", "ghist", "emb", "depth", "frameno", "_source", "_frame"} {
			if _, ok := p.Get(k); !ok {
				t.Fatalf("output %d lacks %q", i, k)
			}
		}
		got, err := col.Get(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := got.Get("hist"); ok {
			t.Fatalf("row %d gained hist in its collection", p.ID)
		}
		if got.Data == nil || !bytes.Equal(got.Marshal(), want[i]) {
			t.Fatalf("row %d changed in its collection", p.ID)
		}
	}
}

func TestTransformersAddFields(t *testing.T) {
	sc := renderScene(3)
	img, _ := sc.Render(0)
	frame := &Patch{Ref: Ref{Source: "cam", Frame: 0}, Data: ImageToTensor(img),
		Meta: Metadata{"frameno": IntV(0), "bbox": RectV(10, 30, 40, 60)}}
	dev := exec.New(exec.CPU)
	emb := vision.NewEmbedder(dev, 42)
	dm := vision.NewDepthModel(dev, sc.Horizon, sc.Focal, 42)

	it := NewSliceIterator([]Tuple{{frame}})
	it = HistogramTransformer(it)
	it = GridHistogramTransformer(3, it)
	it = EmbedTransformer(emb, it)
	it = DepthTransformer(dm, it)
	ps, err := DrainPatches(it)
	if err != nil {
		t.Fatal(err)
	}
	p := ps[0]
	if len(metaVal(p, "hist").Vec()) != vision.HistogramDim {
		t.Fatalf("hist dim %d", len(metaVal(p, "hist").Vec()))
	}
	if len(metaVal(p, "ghist").Vec()) != 64 {
		t.Fatalf("ghist dim %d", len(metaVal(p, "ghist").Vec()))
	}
	if len(metaVal(p, "emb").Vec()) != emb.Dim() {
		t.Fatalf("emb dim %d", len(metaVal(p, "emb").Vec()))
	}
	if metaVal(p, "depth").Float() <= 0 {
		t.Fatalf("depth %f", metaVal(p, "depth").Float())
	}
	// DropData strips the payload but keeps features.
	dropped, _ := DrainPatches(DropData(NewSliceIterator([]Tuple{{p}})))
	if dropped[0].Data != nil {
		t.Fatal("DropData kept payload")
	}
	if len(metaVal(dropped[0], "emb").Vec()) == 0 {
		t.Fatal("DropData lost features")
	}
}

func TestOCRGeneratorOffsetsIntoFrame(t *testing.T) {
	// A synthetic document patch positioned at (20, 10) in its frame.
	img := codec.NewImage(80, 30)
	for i := range img.Pix {
		img.Pix[i] = 250
	}
	vision.DrawString(img, "HI42", 4, 4, 2, [3]uint8{10, 10, 10})
	patch := &Patch{ID: 5, Ref: Ref{Source: "doc", Frame: 3}, Data: ImageToTensor(img),
		Meta: Metadata{"bbox": RectV(20, 10, 100, 40), "frameno": IntV(3)}}
	ps, err := DrainPatches(OCRGenerator(vision.NewDocumentOCR(), NewSliceIterator([]Tuple{{patch}})))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range ps {
		if metaVal(w, "text").Str() == "HI42" {
			found = true
			bb := metaVal(w, "bbox").Vec()
			if bb[0] < 20 || bb[1] < 10 {
				t.Fatalf("word bbox not offset into frame coords: %v", bb)
			}
			if w.Ref.Parent != 5 {
				t.Fatalf("word lineage %+v", w.Ref)
			}
		}
	}
	if !found {
		t.Fatalf("OCR did not recover the planted string; got %d words", len(ps))
	}
}

func TestFromImages(t *testing.T) {
	imgs := []*codec.Image{codec.NewImage(8, 6), codec.NewImage(10, 4)}
	ps, err := DrainPatches(FromImages("corpus", imgs))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("%d patches", len(ps))
	}
	if metaVal(ps[1], "width").Int() != 10 || metaVal(ps[1], "height").Int() != 4 {
		t.Fatalf("dims meta: %+v", ps[1].Meta)
	}
	if ps[0].Ref.Frame != 0 || ps[1].Ref.Frame != 1 {
		t.Fatal("frame numbering wrong")
	}
}

func TestTensorToImageRoundTrip(t *testing.T) {
	img := codec.NewImage(7, 5)
	for i := range img.Pix {
		img.Pix[i] = uint8(i * 3)
	}
	back := TensorToImage(ImageToTensor(img))
	if back.W != 7 || back.H != 5 {
		t.Fatalf("size %dx%d", back.W, back.H)
	}
	if codec.MSE(img, back) != 0 {
		t.Fatal("pixels changed in round trip")
	}
	if TensorToImage(nil) != nil {
		t.Fatal("nil tensor should give nil image")
	}
}

func TestTileGenerator(t *testing.T) {
	img := codec.NewImage(100, 60)
	for i := range img.Pix {
		img.Pix[i] = uint8(i % 251)
	}
	frame := &Patch{ID: 9, Ref: Ref{Source: "v", Frame: 4}, Data: ImageToTensor(img),
		Meta: Metadata{"frameno": IntV(4)}}
	ps, err := DrainPatches(TileGenerator(32, 32, NewSliceIterator([]Tuple{{frame}})))
	if err != nil {
		t.Fatal(err)
	}
	// ceil(100/32) x ceil(60/32) = 4 x 2 tiles.
	if len(ps) != 8 {
		t.Fatalf("tiles = %d, want 8", len(ps))
	}
	var area float64
	for _, p := range ps {
		bb := metaVal(p, "bbox").Vec()
		w := float64(bb[2] - bb[0])
		h := float64(bb[3] - bb[1])
		area += w * h
		if p.Ref.Parent != 9 {
			t.Fatalf("tile lineage %+v", p.Ref)
		}
		tile := TensorToImage(p.Data)
		if tile.W != int(w) || tile.H != int(h) {
			t.Fatalf("tile crop %dx%d does not match bbox %v", tile.W, tile.H, bb)
		}
		// Content matches the source region.
		if tile.At(0, 0, 0) != img.At(int(bb[0]), int(bb[1]), 0) {
			t.Fatal("tile content offset wrong")
		}
	}
	if area != 100*60 {
		t.Fatalf("tiles cover %v px, want %v (no gaps/overlap)", area, 100*60)
	}
}
