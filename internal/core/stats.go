package core

import "time"

// Stats reports what a mining run did. Counter semantics:
//
//   - Nodes counts search-tree nodes (prefixes) explored, including the
//     root.
//   - Emitted counts patterns emitted before normalization/merging.
//   - CandidateScans counts projected-sequence scans performed while
//     counting extension candidates (the dominant cost).
//   - PairPruned counts finish endpoints skipped by P2.
//   - PostfixPruned counts projected sequences dropped by P3.
//   - SizePruned counts nodes cut by P4.
//   - ItemsRemoved counts item ids removed by P1.
type Stats struct {
	Sequences      int
	MinCount       int
	ItemsRemoved   int
	Nodes          int64
	Emitted        int64
	CandidateScans int64
	PairPruned     int64
	PostfixPruned  int64
	SizePruned     int64
	Elapsed        time.Duration

	// Truncated reports that the search stopped before exhausting the
	// search space; TruncatedBy says why (TruncatedMaxPatterns or
	// TruncatedTimeBudget). Context cancellation is reported as an error
	// by the mining call instead, never as a truncation.
	Truncated   bool
	TruncatedBy string
}
