package ring

import "ciphermatch/internal/rng"

// UniformPoly fills out with coefficients uniform in [0, q).
func (r *Ring) UniformPoly(src *rng.Source, out Poly) {
	for i := range out {
		out[i] = src.Uniform(r.q)
	}
}

// TernaryPoly fills out with coefficients uniform in {-1, 0, +1} (reduced
// mod q). This is the secret-key and encryption-ephemeral distribution.
func (r *Ring) TernaryPoly(src *rng.Source, out Poly) {
	for i := range out {
		out[i] = r.fromSmall(src.Ternary())
	}
}

// CBDPoly fills out with centered-binomial(eta) error coefficients (reduced
// mod q).
func (r *Ring) CBDPoly(src *rng.Source, eta int, out Poly) {
	for i := range out {
		out[i] = r.fromSmall(src.CBD(eta))
	}
}

// fromSmall maps v in (-q, q) to its residue in [0, q) with a mask instead
// of a branch on the sign of the (secret) sample.
func (r *Ring) fromSmall(v int64) uint64 {
	return uint64(v) + (r.q & uint64(v>>63))
}
