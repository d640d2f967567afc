package wire

// Observability (OpStats).

import (
	"fmt"

	"spitz/internal/durable"
	"spitz/internal/obs"
)

// Stats is the server-side observability payload: one entry per shard
// (single-engine servers report one), plus per-shard replica status when
// the serving node is itself a replica, plus the process's flattened
// metrics registry — every counter, gauge and histogram quantile the
// admin endpoint would serve on /metrics.
type Stats struct {
	// Protocol names the framing the serving connection speaks
	// (ProtoBinary).
	Protocol string

	Shards []ShardStats
	// Metrics is the flattened obs registry snapshot (counters, gauges,
	// histogram _count/_sum/quantiles), sorted by series name.
	Metrics []Metric
}

// Metric is one flattened registry series in the OpStats payload.
type Metric struct {
	Name  string
	Value float64
}

// RegistryMetrics flattens the process metrics registry into the wire
// representation. Servers attach it to every OpStats response so
// clients (spitz-cli stats) see the full picture without scraping the
// admin endpoint.
func RegistryMetrics() []Metric {
	flat := obs.Default.Flat()
	out := make([]Metric, len(flat))
	for i, m := range flat {
		out[i] = Metric{Name: m.Name, Value: m.Value}
	}
	return out
}

// PublishStats registers scrape-time gauges derived from a deployment's
// typed stats payload: per-shard ledger heights, WAL retention span, and
// per-follower replication lag. Call it once when wiring the admin
// endpoint; fn is invoked on every /metrics scrape.
func PublishStats(r *obs.Registry, fn func() Stats) {
	r.RegisterEmitter(func(emit func(name string, value float64)) {
		st := fn()
		for i, sh := range st.Shards {
			l := fmt.Sprintf(`{shard="%d"}`, i)
			emit("spitz_shard_height"+l, float64(sh.Height))
			emit("spitz_shard_blocks"+l, float64(sh.Blocks))
			emit("spitz_shard_txns"+l, float64(sh.Txns))
			if sh.WAL != nil {
				emit("spitz_wal_durable_height"+l, float64(sh.WAL.DurableHeight))
				emit("spitz_wal_logged_height"+l, float64(sh.WAL.LoggedHeight))
				emit("spitz_wal_oldest_retained_height"+l, float64(sh.WAL.OldestRetainedHeight))
				emit("spitz_wal_segments"+l, float64(sh.WAL.Segments))
				emit("spitz_wal_retained_bytes"+l, float64(sh.WAL.RetainedBytes))
			}
			for _, f := range sh.Followers {
				fl := fmt.Sprintf(`{shard="%d",remote=%q}`, i, f.Remote)
				emit("spitz_follower_lag_blocks"+fl, float64(f.LagBlocks))
				emit("spitz_follower_lag_bytes"+fl, float64(f.LagBytes))
				emit("spitz_follower_sent_height"+fl, float64(f.SentHeight))
				emit("spitz_follower_acked_height"+fl, float64(f.AckedHeight))
				emit("spitz_follower_sent_bytes"+fl, float64(f.SentBytes))
			}
			if sh.Replica != nil {
				emit("spitz_replica_height"+l, float64(sh.Replica.Height))
				connected := 0.0
				if sh.Replica.Connected {
					connected = 1
				}
				emit("spitz_replica_connected"+l, connected)
				emit("spitz_replica_applied_blocks"+l, float64(sh.Replica.AppliedBlocks))
				emit("spitz_replica_applied_bytes"+l, float64(sh.Replica.AppliedBytes))
				emit("spitz_replica_snapshot_loads"+l, float64(sh.Replica.SnapshotLoads))
			}
		}
	})
}

// ShardStats describes one shard of the serving deployment.
type ShardStats struct {
	Height uint64 // committed ledger blocks
	Blocks uint64 // ledger blocks cut by the group-commit pipeline
	Txns   uint64 // transactions folded into those blocks

	// WAL is nil for in-memory shards.
	WAL *WALStats
	// Followers lists the replication followers currently attached.
	Followers []FollowerStats
	// Replica is set when this shard is a read replica mirroring a
	// primary.
	Replica *ReplicaStats
}

// WALStats is a shard's write-ahead log span, as the log reports it.
type WALStats = durable.WALStats

// FollowerStats describes one attached replication follower.
type FollowerStats struct {
	Remote      string // follower's transport address
	StartHeight uint64 // height the stream began at
	SentHeight  uint64 // blocks shipped to the follower
	AckedHeight uint64 // blocks the follower confirmed applying
	SentBytes   uint64 // snapshot + frame bytes shipped
	LagBlocks   uint64 // primary height minus acked height
	LagBytes    uint64 // shipped-but-unacknowledged bytes
}

// ReplicaStats describes a replica shard's view of its primary.
type ReplicaStats struct {
	Height        uint64
	Connected     bool
	LastError     string
	AppliedBlocks uint64
	AppliedBytes  uint64
	SnapshotLoads uint64
}
