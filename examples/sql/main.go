// SQL and JSON documents: the paper's two self-serve interfaces
// (Section 5.1: "Spitz supports both SQL and a self-defined JSON schema").
// Statements are recorded verbatim in ledger blocks, so the audit trail
// shows *what was asked*, not just what changed.
//
// The database is served over TCP and driven through Client.Query: the
// same statements an embedded caller would hand to DB.Exec, except every
// SELECT, aggregate and lookup result now arrives with proofs the client
// verifies against its own saved digest before returning rows.
package main

import (
	"fmt"
	"log"
	"net"

	"spitz"
)

func main() {
	db := spitz.Open(spitz.Options{MaintainInverted: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("sql: no loopback networking: %v", err)
	}
	go db.Serve(ln)

	cl, err := spitz.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	mustQuery := func(stmt string) spitz.QueryResult {
		res, err := cl.Query(stmt)
		if err != nil {
			log.Fatalf("%s\n  -> %v", stmt, err)
		}
		return res
	}

	// SQL writes over the wire.
	mustQuery("INSERT INTO inventory (pk, name, stock) VALUES ('sku-001', 'widget', '120')")
	mustQuery("INSERT INTO inventory (pk, name, stock) VALUES ('sku-002', 'gadget', '30')")
	mustQuery("INSERT INTO inventory (pk, name, stock) VALUES ('sku-003', 'gizmo', '7')")
	mustQuery("UPDATE inventory SET stock = '29' WHERE pk = 'sku-002'")

	// Point and range selects — verified: the rows decode from proven
	// cells, not from whatever the server chose to claim.
	res := mustQuery("SELECT name, stock FROM inventory WHERE pk = 'sku-002'")
	fmt.Printf("sku-002: name=%s stock=%s\n",
		res.Rows[0].Columns["name"], res.Rows[0].Columns["stock"])

	res = mustQuery("SELECT * FROM inventory WHERE pk BETWEEN 'sku-001' AND 'sku-003'")
	fmt.Printf("verified range scan: %d rows\n", len(res.Rows))
	for _, row := range res.Rows {
		fmt.Printf("  %s: name=%s stock=%s\n", row.PK,
			row.Columns["name"], row.Columns["stock"])
	}

	// Verified aggregates: COUNT and SUM fold client-side over proven
	// cells (values must be decimal strings for SUM).
	res = mustQuery("SELECT SUM(stock) FROM inventory WHERE pk BETWEEN 'sku-001' AND 'sku-999'")
	fmt.Printf("verified SUM(stock) = %d\n", res.AggValue)

	// Predicate-only lookup through the inverted index.
	res = mustQuery("SELECT stock FROM inventory WHERE name = 'widget'")
	fmt.Printf("lookup name='widget': %d row(s), stock=%s\n",
		len(res.Rows), res.Rows[0].Columns["stock"])

	// Every version of a cell, via SQL.
	res = mustQuery("HISTORY inventory.stock WHERE pk = 'sku-002'")
	fmt.Printf("sku-002 stock history:")
	for _, row := range res.Rows {
		fmt.Printf(" %s@v%s", row.Columns["stock"], row.Columns["@version"])
	}
	fmt.Println()

	// The audit trail: statements live in the ledger blocks they
	// committed. (Block inspection is a server-side, embedded API.)
	upd := mustQuery("UPDATE inventory SET stock = '28' WHERE pk = 'sku-002'")
	h, err := db.Block(upd.Block)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block %d (version %d) records the statement that produced it\n",
		h.Height, h.Version)

	// JSON documents: fields become columns; nested objects become dotted
	// paths; every field gets its own verifiable history.
	if _, err := db.PutDocument("suppliers", []byte("acme"), []byte(`{
		"name": "ACME Corp",
		"contact": {"email": "sales@acme.example", "phone": "+65 0000 0000"},
		"regions": ["sg", "cn"]
	}`)); err != nil {
		log.Fatal(err)
	}
	doc, found, err := db.GetDocument("suppliers", []byte("acme"))
	if err != nil || !found {
		log.Fatal("document lost")
	}
	fmt.Printf("document round trip: %s\n", doc)

	// A nested field is an ordinary cell — and over the wire it is
	// queryable and verified like any other.
	res = mustQuery("SELECT contact.email FROM suppliers WHERE pk = 'acme'")
	fmt.Printf("nested field as a cell: contact.email = %s\n",
		res.Rows[0].Columns["contact.email"])

	cols, err := db.Columns("suppliers")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("supplier columns discovered from writes: %v\n", cols)

	// And a DELETE tombstones every column of the row — history remains.
	mustQuery("DELETE FROM inventory WHERE pk = 'sku-003'")
	res = mustQuery("SELECT * FROM inventory WHERE pk BETWEEN 'sku-001' AND 'sku-999'")
	fmt.Printf("after delete, verified range scan sees %d rows\n", len(res.Rows))
}
