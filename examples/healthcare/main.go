// Healthcare: the paper's introductory scenario, run as a networked
// demo against a sharded cluster. "Health data needs to be kept for the
// lifetime of a patient, and each diagnosis, lab test, prescription,
// etc., is appended to the patient profile. Disease and procedure
// coding standards evolve over time, e.g., from ICD-9-CM to ICD-10 ...
// the data must be immutable and a new version of the database ... is
// appended."
//
// A hospital group runs a 4-shard Spitz cluster and serves it over TCP.
// A workload generator admits patients under ICD-9 coding and then
// migrates the coding standard to ICD-10 — a new version of every
// affected record; the old version remains. An analyst connects with a
// shard-aware client and never trusts the hospital: a cohort range
// query, COUNT/SUM aggregates and an inverted-index lookup all fan out
// across the shards, and every surfaced record carries a proof the
// analyst's client checks against its own per-shard digests.
package main

import (
	"fmt"
	"log"
	"net"

	"spitz"
)

func patient(i int) string { return fmt.Sprintf("patient-%03d", i) }

// icd9 is the workload generator's deterministic coding assignment.
func icd9(i int) string {
	if i%3 == 0 {
		return "ICD9:401.9" // essential hypertension
	}
	return "ICD9:250.00" // diabetes mellitus
}

var recode = map[string]string{"ICD9:250.00": "ICD10:E11.9", "ICD9:401.9": "ICD10:I10"}

func main() {
	// The hospital group hosts a sharded cluster: patient keys hash
	// across 4 shards, each a full engine with its own ledger.
	db, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 4, MaintainInverted: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("healthcare: no loopback networking: %v", err)
	}
	go db.Serve(ln)
	addr := ln.Addr().String()
	fmt.Printf("hospital group serving %d-shard cluster on %s\n", db.Shards(), addr)

	sc, err := spitz.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Close()

	// Workload: admissions under ICD-9, one INSERT statement each. The
	// statements are recorded verbatim in the owning shard's ledger.
	for i := 0; i < 100; i++ {
		stmt := fmt.Sprintf(
			"INSERT INTO records (pk, diagnosis, status, visits) VALUES ('%s', '%s', 'admitted', '%d')",
			patient(i), icd9(i), 1+i%5)
		if _, err := sc.Query(stmt); err != nil {
			log.Fatalf("%s: %v", stmt, err)
		}
	}

	// The coding standard migrates to ICD-10: every diagnosis is
	// re-coded with an UPDATE. Old versions stay — append-only.
	for i := 0; i < 100; i++ {
		stmt := fmt.Sprintf("UPDATE records SET diagnosis = '%s' WHERE pk = '%s'",
			recode[icd9(i)], patient(i))
		res, err := sc.Query(stmt)
		if err != nil || res.RowsAffected != 1 {
			log.Fatalf("%s: affected %d, err %v", stmt, res.RowsAffected, err)
		}
	}

	// A verified cohort query: diagnoses of patients 20-39. The range
	// fans out to every shard; each shard's slice comes back under a
	// range proof, so an omitted or altered record would be caught.
	res, err := sc.Query("SELECT diagnosis FROM records WHERE pk BETWEEN 'patient-020' AND 'patient-039'")
	if err != nil {
		log.Fatal(err)
	}
	counts := map[string]int{}
	for _, row := range res.Rows {
		counts[string(row.Columns["diagnosis"])]++
	}
	fmt.Printf("verified cohort (patients 20-39): %d records\n", len(res.Rows))
	for code, n := range counts {
		fmt.Printf("  %-12s %d patients\n", code, n)
	}

	// Verified aggregates over the whole population: per-shard partials
	// are each proven, folded client-side, then summed.
	res, err = sc.Query("SELECT COUNT(visits) FROM records WHERE pk BETWEEN 'patient-000' AND 'patient-099'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified COUNT(visits) = %d patients on record\n", res.AggValue)
	res, err = sc.Query("SELECT SUM(visits) FROM records WHERE pk BETWEEN 'patient-000' AND 'patient-099'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified SUM(visits)   = %d total visits\n", res.AggValue)

	// Value lookup via every shard's inverted index: who has
	// hypertension now? Each surfaced row is individually proven.
	res, err = sc.Query("SELECT status FROM records WHERE diagnosis = 'ICD10:I10'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inverted index: %d patients currently coded ICD10:I10\n", len(res.Rows))

	// Provenance: one patient's full coding history, newest first — the
	// pre-migration ICD-9 code is still on the books.
	res, err = sc.Query(fmt.Sprintf("HISTORY records.diagnosis WHERE pk = '%s'", patient(0)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s diagnosis history:", patient(0))
	for _, row := range res.Rows {
		fmt.Printf("  %s@v%s", row.Columns["diagnosis"], row.Columns["@version"])
	}
	fmt.Println()
}
