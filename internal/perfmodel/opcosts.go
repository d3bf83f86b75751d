package perfmodel

import (
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/rng"
)

// MeasuredOps holds per-operation latencies measured on this machine with
// this repository's BFV implementation. Note the documented substitution
// (DESIGN.md §6): q is not an NTT prime, so a ring product runs through an
// auxiliary-prime NTT only when the operands' norms bound it (encryption,
// decryption, relinearisation digits at small n) and through
// schoolbook/Karatsuba otherwise, and Hom-Mul's tensor product is an exact
// schoolbook convolution; the Mul/Add ratio is therefore higher than
// SEAL's. The calibrated model constants (Calibration) are used for figure
// regeneration and these measurements are reported alongside.
type MeasuredOps struct {
	TAdd time.Duration // Hom-Add (AddInto), per ciphertext pair
	TMul time.Duration // Hom-Mul + relinearisation
	TDec time.Duration // decryption
}

// MeasureOps times the three operations over iters iterations each.
func MeasureOps(p bfv.Params, iters int) (MeasuredOps, error) {
	if iters < 1 {
		iters = 1
	}
	src := rng.NewSourceFromString("perfmodel-measure")
	sk, pk := bfv.KeyGen(p, src.Fork("keys"))
	rlk := bfv.NewRelinKey(p, sk, src.Fork("rlk"))
	enc := bfv.NewEncoder(p)
	encryptor := bfv.NewEncryptor(p, pk)
	decryptor := bfv.NewDecryptor(p, sk)
	ev := bfv.NewEvaluator(p)

	msg := make([]uint64, p.N)
	for i := range msg {
		msg[i] = src.Uniform(2)
	}
	pt, err := enc.Encode(msg)
	if err != nil {
		return MeasuredOps{}, err
	}
	a := encryptor.Encrypt(pt, src.Fork("a"))
	b := encryptor.Encrypt(pt, src.Fork("b"))
	out := a.Clone()

	var m MeasuredOps

	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := ev.AddInto(a, b, out); err != nil {
			return m, err
		}
	}
	m.TAdd = time.Since(start) / time.Duration(iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := ev.MulRelin(a, b, rlk); err != nil {
			return m, err
		}
	}
	m.TMul = time.Since(start) / time.Duration(iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		decryptor.Decrypt(a)
	}
	m.TDec = time.Since(start) / time.Duration(iters)
	return m, nil
}
