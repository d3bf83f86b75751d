package flash

import "fmt"

// This file implements the bit-serial addition µ-program of Fig. 5: adding
// a streamed operand B (arriving page-by-page from the SSD controller) to
// an operand A stored vertically in the flash array, across every bitline
// of the plane in parallel. The carry lives in D-latch 2 between bit
// steps; dropping the final carry-out makes the addition mod 2^32 — which
// is exactly the coefficient ring Z_q with the paper's q = 2^32, so
// homomorphic addition needs no extra reduction step.
//
// Step mapping (latch state uses B=operand bit, A=stored bit, C=carry):
//
//	 1. LoadS(B_i)        S=B          (DMA + latch write)
//	 2. TransferS2D(1)    D1=B
//	 3. AndSD(2)          S=B·C        (C is in D2 from the previous bit)
//	 4. XorDD(1,2)        D1=B⊕C
//	 5. TransferS2D(0)    D0=B·C
//	 6. ReadPage(A_i)     S=A          (flash read)
//	 7. TransferS2D(2)    D2=A
//	 8. AndSD(1)          S=A·(B⊕C)
//	 9. XorDD(1,2)        D1=A⊕B⊕C     = sum bit
//	10. TransferS2D(2)    D2=A·(B⊕C)
//	11. TransferD2S(0)    S=B·C
//	12. OrSD(2)           D2=A·(B⊕C)+B·C = carry out
//	13. ReadLatchD(1)     sum bit out  (DMA)
//
// Totals per bit: 1 read, 2 XOR, 5 latch transfers, 2 AND + 1 OR + 1 latch
// write (the 4 AND/OR-class ops of Eq. 10), and 2 DMA transfers (Eq. 9).

// OperandBits is the coefficient width of the bit-serial adder: 32 bits,
// matching the paper's q = 2^32 ciphertext coefficients.
const OperandBits = 32

// BitSerialAddPlanes adds the 32 operand bit-planes bPlanes to the value
// stored vertically at (block, wlBase..wlBase+31), writing the 32 sum
// bit-planes into the caller's sums, each one page wide. Every bitline
// computes one independent 32-bit addition; the final carry-out is
// discarded (mod-2^32 semantics).
func (p *Plane) BitSerialAddPlanes(b, wlBase int, bPlanes, sums [][]uint64) error {
	if len(bPlanes) != OperandBits || len(sums) != OperandBits {
		return fmt.Errorf("flash: operand and sum must have %d bit-planes, got %d and %d", OperandBits, len(bPlanes), len(sums))
	}
	if mode := p.BlockMode(b); mode != ModeSLCESP {
		return fmt.Errorf("flash: bit-serial addition on %s block %d (CIPHERMATCH region must be SLC+ESP, §4.3.1)", mode, b)
	}
	p.ResetD(2) // carry-in = 0
	for i := 0; i < OperandBits; i++ {
		if err := p.LoadS(bPlanes[i]); err != nil { // 1
			return err
		}
		p.TransferS2D(1)                                // 2
		p.AndSD(2)                                      // 3
		p.XorDD(1, 2)                                   // 4
		p.TransferS2D(0)                                // 5
		if err := p.ReadPage(b, wlBase+i); err != nil { // 6
			return err
		}
		p.TransferS2D(2)         // 7
		p.AndSD(1)               // 8
		p.XorDD(1, 2)            // 9
		p.TransferS2D(2)         // 10
		p.TransferD2S(0)         // 11
		p.OrSD(2)                // 12
		p.ReadLatchD(1, sums[i]) // 13
		p.stats.BitSerialAdds++
	}
	return nil
}
