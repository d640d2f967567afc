// Quickstart: open an embedded verifiable database, write, read with an
// integrity proof, verify it locally, and watch tampering get caught.
package main

import (
	"errors"
	"fmt"
	"log"

	"spitz"
)

func main() {
	db := spitz.Open(spitz.Options{})

	// Writes are grouped into ledger blocks; the statement is recorded for
	// auditing.
	_, err := db.Apply("initial credit", []spitz.Put{
		{Table: "accounts", Column: "balance", PK: []byte("alice"), Value: []byte("100")},
		{Table: "accounts", Column: "balance", PK: []byte("bob"), Value: []byte("250")},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Plain read.
	v, err := db.Get("accounts", "balance", []byte("alice"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice's balance: %s\n", v)

	// Verified read: the result comes with a proof and the ledger digest.
	verifier := spitz.NewVerifier()
	res, err := db.GetVerified("accounts", "balance", []byte("alice"))
	if err != nil {
		log.Fatal(err)
	}
	// Pin the digest (trust-on-first-use), then check the proof against
	// the client's own trusted state — never the server's say-so. Check
	// walks the read the client asked and returns the cells that walk
	// proves.
	if err := verifier.Advance(res.Digest, spitz.ConsistencyProof{}); err != nil {
		log.Fatal(err)
	}
	read := []spitz.BatchQuery{{Table: "accounts", Column: "balance", PK: []byte("alice")}}
	live, err := verifier.Check(&res.Proof, res.Digest, read, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified read: %s = %s (block digest height %d)\n",
		live[0][0].PK, live[0][0].Value, res.Digest.Height)

	// Tampering: a forged proof (here, a modified block header) fails.
	forged := res.Proof
	forged.Header.CellCount += 1
	if _, err := verifier.Check(&forged, res.Digest, read, 1, nil); errors.Is(err, spitz.ErrTampered) {
		fmt.Println("forged proof rejected: tampering detected")
	} else {
		log.Fatal("forged proof was accepted!")
	}

	// The ledger digest advances with every block, and every digest
	// provably extends the previous one — history cannot be rewritten.
	before := db.Digest()
	db.Apply("bonus", []spitz.Put{
		{Table: "accounts", Column: "balance", PK: []byte("alice"), Value: []byte("110")},
	})
	after := db.Digest()
	cons, _ := db.ConsistencyProof(before)
	if err := cons.Verify(before.Root, after.Root); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ledger advanced %d -> %d blocks, consistency proven\n",
		before.Height, after.Height)

	// Immutability: both balances remain queryable.
	hist, _ := db.History("accounts", "balance", []byte("alice"))
	fmt.Printf("alice's balance history (newest first):")
	for _, c := range hist {
		fmt.Printf(" %s@v%d", c.Value, c.Version)
	}
	fmt.Println()
}
