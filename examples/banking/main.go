// Banking: serializable transfers with MVCC transactions, conflict
// handling, and a networked regulator auditing the books with verified
// SQL — the "financial transactions" workload from the paper's
// introduction (Figure 2).
//
// The bank runs the Spitz server and its tellers transfer money between
// accounts with optimistic transactions; conflicting transfers abort and
// retry. A regulator connects over TCP as a separate, distrustful party:
// it opens the accounts through the query surface, and after the
// transfer storm audits conservation of money with verified COUNT and
// SUM aggregates — every cell that feeds the fold arrives with a proof
// the regulator's client re-checks against its own saved digest, so the
// bank cannot hide an account or shave a balance.
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"sync"

	"spitz"
)

const (
	accounts = 8
	tellers  = 4
	transfer = 5
	initial  = 1000
)

func acct(i int) []byte { return []byte(fmt.Sprintf("acct-%02d", i)) }

func main() {
	// The bank hosts the database and serves it over the wire.
	db := spitz.Open(spitz.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("banking: no loopback networking: %v", err)
	}
	go db.Serve(ln)
	addr := ln.Addr().String()
	fmt.Printf("bank serving ledger database on %s\n", addr)

	// The regulator opens the accounts over the wire, one INSERT
	// statement each — recorded verbatim in the audit trail.
	reg, err := spitz.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()
	for i := 0; i < accounts; i++ {
		stmt := fmt.Sprintf("INSERT INTO bank (pk, balance) VALUES ('%s', '%d')", acct(i), initial)
		if _, err := reg.Query(stmt); err != nil {
			log.Fatalf("%s: %v", stmt, err)
		}
	}

	// Concurrent tellers run read-modify-write transfers on the bank's
	// embedded handle: interactive transactions need Begin/Commit, which
	// stays server-side.
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed, aborted := 0, 0
	for t := 0; t < tellers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from, to := acct((t+i)%accounts), acct((t+i+1)%accounts)
				err := transferOnce(db, from, to)
				mu.Lock()
				if err == nil {
					committed++
				} else if errors.Is(err, spitz.ErrConflict) {
					aborted++ // serialization conflict: safe to retry
				} else {
					log.Fatalf("transfer: %v", err)
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	fmt.Printf("transfers: %d committed, %d aborted on conflicts\n", committed, aborted)

	// The audit, over the wire: COUNT proves no account vanished, SUM
	// proves money was conserved. Both fold client-side from proven
	// cells — the server cannot pick the answer.
	res, err := reg.Query("SELECT COUNT(balance) FROM bank WHERE pk BETWEEN 'acct-00' AND 'acct-99'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit: verified COUNT(balance) = %d (expected %d)\n", res.AggValue, accounts)
	res, err = reg.Query("SELECT SUM(balance) FROM bank WHERE pk BETWEEN 'acct-00' AND 'acct-99'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit: verified SUM(balance) = %d (expected %d)\n", res.AggValue, accounts*initial)
	if res.AggValue != uint64(accounts*initial) {
		log.Fatal("money was not conserved!")
	}

	// A verified statement about one account, for the record.
	res, err = reg.Query(fmt.Sprintf("SELECT balance FROM bank WHERE pk = '%s'", acct(0)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified statement: %s = %s at trusted height %d\n",
		res.Rows[0].PK, res.Rows[0].Columns["balance"], reg.Verifier().Digest().Height)

	// Every committed transfer is in the immutable history.
	res, err = reg.Query(fmt.Sprintf("HISTORY bank.balance WHERE pk = '%s'", acct(0)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("account %s has %d balance versions on record\n", acct(0), len(res.Rows))
}

// transferOnce moves `transfer` units inside one serializable transaction.
func transferOnce(db *spitz.DB, from, to []byte) error {
	tx := db.Begin()
	fv, ok, err := tx.Get("bank", "balance", from)
	if err != nil || !ok {
		tx.Abort()
		return fmt.Errorf("read %s: %v", from, err)
	}
	tv, ok, err := tx.Get("bank", "balance", to)
	if err != nil || !ok {
		tx.Abort()
		return fmt.Errorf("read %s: %v", to, err)
	}
	fb, _ := strconv.Atoi(string(fv))
	tb, _ := strconv.Atoi(string(tv))
	if fb < transfer {
		tx.Abort()
		return nil // insufficient funds: no-op
	}
	tx.Put("bank", "balance", from, []byte(strconv.Itoa(fb-transfer)))
	tx.Put("bank", "balance", to, []byte(strconv.Itoa(tb+transfer)))
	_, err = tx.Commit()
	return err
}
