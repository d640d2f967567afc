package ledger

import (
	"fmt"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
	"spitz/internal/postree"
)

// Reopen reconstructs a ledger from its header chain, addressing the live
// cell store by the head block's CellRoot; each cell's older versions hang
// off its head entry (cellstore.Chain), so nothing else is loaded. Only
// the POS-tree root node is read here; everything else faults in from the
// store on first touch, so reopen cost is O(height) header work, not
// O(state).
//
// The header chain is validated structurally (heights and parent links);
// callers that read headers from untrusted storage get content-address
// verification for free when each header was fetched by its own hash.
// Reopen takes ownership of headers.
func Reopen(store cas.Store, headers []BlockHeader) (*Ledger, error) {
	l := New(store)
	var parent hashutil.Digest
	for i, h := range headers {
		if h.Height != uint64(i) {
			return nil, fmt.Errorf("ledger: reopen: header %d carries height %d", i, h.Height)
		}
		if h.Parent != parent {
			return nil, fmt.Errorf("ledger: reopen: header %d breaks the parent chain", i)
		}
		l.commit.Append(mtree.LeafHash(h.Encode()))
		parent = h.Hash()
	}
	if len(headers) > 0 {
		head := headers[len(headers)-1]
		tree, err := postree.Load(store, head.CellRoot)
		if err != nil {
			return nil, fmt.Errorf("ledger: reopen cell root: %w", err)
		}
		l.cells = cellstore.Store{Tree: tree}
		l.headers = headers
	}
	return l, nil
}
