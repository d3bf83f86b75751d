package harness

import "testing"

// TestFactoredQueryShrinksStandardFixture pins the acceptance bar of
// the factored-token representation on the standard engine-bench
// fixture (4 KiB database, 32-bit query, align 8): the query ships
// NumChunks + phases polynomials, at least 2× fewer bytes than the
// expanded form (a pattern ciphertext per phase plus one token
// polynomial per residue per chunk) would cost.
func TestFactoredQueryShrinksStandardFixture(t *testing.T) {
	cfg, _, q, err := NewEngineBenchFixture()
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasTokens() {
		t.Fatal("standard fixture query carries no match tokens")
	}
	polyBytes := int64(cfg.Params.N * cfg.Params.QBytes())
	fb := q.SizeBytes(cfg.Params)
	if want := int64(q.NumChunks+len(q.RHS)) * polyBytes; fb != want {
		t.Fatalf("factored query = %d bytes, want %d (chunks + phases polynomials)", fb, want)
	}
	expanded := int64(2*len(q.RHS)+len(q.Residues)*q.NumChunks) * polyBytes
	if 2*fb > expanded {
		t.Fatalf("factored query = %d bytes, expanded form = %d — want ≥2× reduction (got %.2fx)",
			fb, expanded, float64(expanded)/float64(fb))
	}
}
