package service

import (
	"bytes"
	"encoding/json"
)

// The reference the /query decoder is checked against: the decode the
// handler ran before it read bodies itself, encoding/json into a
// Request with unknown fields disallowed.

// refDecodeQuery decodes body as handleQuery did.
func refDecodeQuery(body []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}
