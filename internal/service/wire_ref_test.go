package service

import (
	"net/http"
	"net/http/httptest"

	"repro/internal/core"
)

// The reference the /query encoder is checked against: rows projected to
// maps and the Response encoded by encoding/json, indented — the path
// the service took before rows went from patch to bytes directly.

// projectRows converts patches to maps of what a Row carries: scalar
// metadata plus identity and lineage columns (vectors are elided).
func projectRows(ps []*core.Patch) []map[string]any {
	rows := make([]map[string]any, len(ps))
	for i, p := range ps {
		row := map[string]any{
			"_id":     uint64(p.ID),
			"_source": p.Ref.Source,
			"_frame":  p.Ref.Frame,
		}
		for k, v := range p.Meta {
			switch v.Kind {
			case core.KindInt:
				row[k] = v.Int()
			case core.KindFloat:
				row[k] = v.Float()
			case core.KindStr:
				row[k] = v.Str()
			}
		}
		rows[i] = row
	}
	return rows
}

// refRows is rows as reference maps: the projection of builder copies
// of their patches, whose Meta holds every entry a committed row's Range
// yields, plus _dist for a kNN neighbor.
func refRows(rows []Row) []map[string]any {
	ps := make([]*core.Patch, len(rows))
	for i, r := range rows {
		ps[i] = r.patch().Builder()
	}
	out := projectRows(ps)
	for i, r := range rows {
		if r.knn {
			out[i]["_dist"] = r.dist
		}
	}
	return out
}

// rowField is row.Get's value, nil when the row lacks the field.
func rowField(row Row, field string) any {
	v, _ := row.Get(field)
	return v
}

// wireResponse is a Response with map rows, as a client decodes one.
// Its Value and Rows shadow the embedded Response's and come first, so
// it encodes its fields in Response's order.
type wireResponse struct {
	Value int              `json:"value"`
	Rows  []map[string]any `json:"rows,omitempty"`
	Response
}

// refBody is the reference answer for r: what writeJSON sends for r with
// its rows as maps.
func refBody(r *Response) (int, []byte) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &wireResponse{Value: r.Value, Rows: refRows(r.Rows), Response: *r})
	return rec.Code, rec.Body.Bytes()
}

// patch returns the row as a new committed row.
func (r Row) patch() *core.Patch { return r.tab.Row(int(r.pos)) }
