package query

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"spitz/internal/core"
)

// The JSON document layer: Spitz's "self-defined JSON schema"
// (Section 5.1). A document's fields map onto columns of its table —
// nested objects flatten to dotted paths — so documents inherit all cell
// store properties: immutability, per-field history, verifiable reads.

// PutDocument stores a JSON document under (table, pk): every top-level
// and nested field becomes one cell. Arrays and scalars are stored as
// their JSON encoding.
func PutDocument(eng *core.Engine, table string, pk []byte, doc []byte) (uint64, error) {
	var parsed map[string]any
	if err := json.Unmarshal(doc, &parsed); err != nil {
		return 0, fmt.Errorf("query: document: %w", err)
	}
	fields := map[string][]byte{}
	flatten("", parsed, fields)
	if len(fields) == 0 {
		return 0, fmt.Errorf("query: document has no fields")
	}
	puts := make([]core.Put, 0, len(fields))
	// Deterministic column order keeps write-set hashes reproducible.
	cols := make([]string, 0, len(fields))
	for col := range fields {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		puts = append(puts, core.Put{Table: table, Column: col, PK: pk, Value: fields[col]})
	}
	h, err := eng.Apply(fmt.Sprintf("PUT DOCUMENT %s/%s", table, pk), puts)
	if err != nil {
		return 0, err
	}
	return h.Height, nil
}

// flatten maps nested objects to dotted column paths; leaves are stored as
// compact JSON so GetDocument can reassemble them losslessly.
func flatten(prefix string, v any, out map[string][]byte) {
	if obj, ok := v.(map[string]any); ok {
		for k, child := range obj {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flatten(key, child, out)
		}
		return
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return // unreachable for decoded JSON values
	}
	out[prefix] = enc
}

// GetDocument reassembles the latest version of a document from its cells.
// found is false when no field of the document exists.
func GetDocument(eng *core.Engine, table string, pk []byte) ([]byte, bool, error) {
	cols, err := eng.Columns(table)
	if err != nil {
		return nil, false, err
	}
	tree := map[string]any{}
	found := false
	for _, col := range cols {
		v, err := eng.Get(table, col, pk)
		if err == core.ErrNotFound {
			continue
		}
		if err != nil {
			return nil, false, err
		}
		var decoded any
		if err := json.Unmarshal(v, &decoded); err != nil {
			decoded = string(v) // field written through the cell API
		}
		insertPath(tree, strings.Split(col, "."), decoded)
		found = true
	}
	if !found {
		return nil, false, nil
	}
	enc, err := json.Marshal(tree)
	return enc, true, err
}

func insertPath(tree map[string]any, path []string, v any) {
	if len(path) == 1 {
		tree[path[0]] = v
		return
	}
	child, ok := tree[path[0]].(map[string]any)
	if !ok {
		child = map[string]any{}
		tree[path[0]] = child
	}
	insertPath(child, path[1:], v)
}
