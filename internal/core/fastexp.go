package core

import "math"

// This file provides the inline-friendly exponentials the flat near-field
// kernels use in place of math.Exp. The GB pair term needs exp(-d²/(4RᵢRⱼ)),
// an always-non-positive argument, and on amd64 math.Exp is an opaque
// assembly call — it cannot inline into the unrolled kernel loops, and
// because Go's ABI makes every register caller-saved, the call boundary
// forces the accumulator lanes and streamed operands to spill around every
// term. expNeg trades the last couple of bits for a short sequence that
// fits the compiler's inlining budget (kept there deliberately — check
// `go build -gcflags=-m` when touching this file):
//
//	e^x = 2^k · 2^(j/128) · e^r,  x·(128/ln2) ≈ 128k + j,  |r| ≤ ln2/256
//
// with a degree-4 Taylor tail. The 2^k·2^(j/128) factor is assembled
// directly in the bit pattern: table entries lie in [1, 2), so their
// exponent field is exactly the bias and adding k<<52 (as (ki&^127)<<45)
// yields the bits of the product with no multiply.
//
// The argument reduction uses a single full-precision constant rather than
// the two-constant Cody–Waite split, so r carries the rounding of kf·expL —
// about 0.5 ulp of |x| — giving relative error ≈ 1.1e-15 + |x|·1.2e-16
// (measured in TestExpNegAccuracy). That grows toward 2.5e-14 at the flush
// cut, but exp only influences the GB pair term through rr·e^x against
// d² ≥ -4·x·rr... i.e. the term's sensitivity to exp error decays like
// rr·e^x/d², orders of magnitude faster than the error grows, so the
// energy-relevant range (|x| ≲ 30) sees ≤ 5e-15 — three orders under the
// 1e-12 flat-vs-recursive golden pins (the float64 recursive oracle keeps
// calling math.Exp).

// expNegCut is where expNeg flushes to zero. exp(-200) ≈ 1.4e-87; the GB
// pair term adds rr·e^x to d² ≥ 800·rr at that argument, so the flushed
// tail is ~1e-90 of the surviving term — far below float64 resolution.
// (The bit-assembled exponent would stay in the normal range down to
// x ≈ -709; the cut just keeps a safety margin.)
const expNegCut = -200.0

const (
	expL    = 0.0054152123481245727 // ln2/128, correctly rounded
	expInvL = 184.66496523378731    // 128/ln2
)

// expNeg returns e^x for x ≤ 0, flushing to 0 below expNegCut. It must
// stay call-free and under the inlining budget: Float64frombits is a
// compiler intrinsic, so the whole body inlines into the kernel loops.
func expNeg(x float64) float64 {
	if x < expNegCut {
		return 0
	}
	// Round-to-nearest for non-positive arguments via truncation of z−0.5
	// (int64 conversion truncates toward zero, i.e. up, for negatives).
	ki := int64(x*expInvL - 0.5)
	r := x - float64(ki)*expL
	// 2^k·2^(j/128) assembled in the exponent/mantissa bits: ki&^127 is
	// 128k ≤ 0, so (ki&^127)<<45 adds k to the table entry's exponent
	// field (biased exponent stays positive for x ≥ expNegCut).
	sc := math.Float64frombits(uint64(ki&^127)<<45 + exp2Bits[ki&127])
	r2 := r * r
	p := r + r2*(0.5+r*(1.0/6+r*(1.0/24)))
	return sc + sc*p
}

// expNegFMA is expNeg with the reduction and the tail fused as the amd64
// vector kernels fuse them: the far kernel (epolfar_amd64.s) repeats it
// bit for bit, so farPair, its scalar twin, calls it. The float64
// conversion keeps the reduction's product rounded on its own.
func expNegFMA(x float64) float64 {
	if x < expNegCut {
		return 0
	}
	ki := int64(float64(x*expInvL) - 0.5)
	r := math.FMA(-float64(ki), expL, x)
	sc := math.Float64frombits(uint64(ki&^127)<<45 + exp2Bits[ki&127])
	p := math.FMA(r*r, math.FMA(r, math.FMA(r, 1.0/24, 1.0/6), 0.5), r)
	return math.FMA(sc, p, sc)
}

// exp2Bits[j] = bits of 2^(j/128), correctly rounded.
var exp2Bits = [128]uint64{
	0x3ff0000000000000, 0x3ff0163da9fb3335, 0x3ff02c9a3e778061, 0x3ff04315e86e7f85,
	0x3ff059b0d3158574, 0x3ff0706b29ddf6de, 0x3ff0874518759bc8, 0x3ff09e3ecac6f383,
	0x3ff0b5586cf9890f, 0x3ff0cc922b7247f7, 0x3ff0e3ec32d3d1a2, 0x3ff0fb66affed31b,
	0x3ff11301d0125b51, 0x3ff12abdc06c31cc, 0x3ff1429aaea92de0, 0x3ff15a98c8a58e51,
	0x3ff172b83c7d517b, 0x3ff18af9388c8dea, 0x3ff1a35beb6fcb75, 0x3ff1bbe084045cd4,
	0x3ff1d4873168b9aa, 0x3ff1ed5022fcd91d, 0x3ff2063b88628cd6, 0x3ff21f49917ddc96,
	0x3ff2387a6e756238, 0x3ff251ce4fb2a63f, 0x3ff26b4565e27cdd, 0x3ff284dfe1f56381,
	0x3ff29e9df51fdee1, 0x3ff2b87fd0dad990, 0x3ff2d285a6e4030b, 0x3ff2ecafa93e2f56,
	0x3ff306fe0a31b715, 0x3ff32170fc4cd831, 0x3ff33c08b26416ff, 0x3ff356c55f929ff1,
	0x3ff371a7373aa9cb, 0x3ff38cae6d05d866, 0x3ff3a7db34e59ff7, 0x3ff3c32dc313a8e4,
	0x3ff3dea64c123422, 0x3ff3fa4504ac801c, 0x3ff4160a21f72e2a, 0x3ff431f5d950a897,
	0x3ff44e086061892d, 0x3ff46a41ed1d0058, 0x3ff486a2b5c13cd0, 0x3ff4a32af0d7d3de,
	0x3ff4bfdad5362a27, 0x3ff4dcb299fddd0d, 0x3ff4f9b2769d2ca7, 0x3ff516daa2cf6642,
	0x3ff5342b569d4f82, 0x3ff551a4ca5d920f, 0x3ff56f4736b527da, 0x3ff58d12d497c7fd,
	0x3ff5ab07dd485429, 0x3ff5c9268a5946b7, 0x3ff5e76f15ad2148, 0x3ff605e1b976dc09,
	0x3ff6247eb03a5584, 0x3ff6434634ccc320, 0x3ff6623882552224, 0x3ff68155d44ca973,
	0x3ff6a09e667f3bcc, 0x3ff6c012750bdabf, 0x3ff6dfb23c651a2f, 0x3ff6ff7df9519484,
	0x3ff71f75e8ec5f74, 0x3ff73f9a48a58174, 0x3ff75feb564267c9, 0x3ff780694fde5d40,
	0x3ff7a11473eb0187, 0x3ff7c1ed0130c132, 0x3ff7e2f336cf4e62, 0x3ff80427543e1a12,
	0x3ff82589994cce12, 0x3ff8471a4623c7ad, 0x3ff868d99b4492ec, 0x3ff88ac7d98a669a,
	0x3ff8ace5422aa0dc, 0x3ff8cf3216b5448c, 0x3ff8f1ae99157736, 0x3ff9145b0b91ffc6,
	0x3ff93737b0cdc5e5, 0x3ff95a44cbc8520f, 0x3ff97d829fde4e50, 0x3ff9a0f170ca07ba,
	0x3ff9c49182a3f090, 0x3ff9e86319e32323, 0x3ffa0c667b5de565, 0x3ffa309bec4a2d34,
	0x3ffa5503b23e255c, 0x3ffa799e1330b358, 0x3ffa9e6b5579fdbf, 0x3ffac36bbfd3f37a,
	0x3ffae89f995ad3ae, 0x3ffb0e07298db666, 0x3ffb33a2b84f15fb, 0x3ffb59728de5593a,
	0x3ffb7f76f2fb5e47, 0x3ffba5b030a1064a, 0x3ffbcc1e904bc1d2, 0x3ffbf2c25bd71e08,
	0x3ffc199bdd85529c, 0x3ffc40ab5fffd07a, 0x3ffc67f12e57d14b, 0x3ffc8f6d9406e7b5,
	0x3ffcb720dcef9069, 0x3ffcdf0b555dc3fa, 0x3ffd072d4a07897c, 0x3ffd2f87080d89f2,
	0x3ffd5818dcfba487, 0x3ffd80e316c98398, 0x3ffda9e603db3286, 0x3ffdd321f301b460,
	0x3ffdfc97337b9b5f, 0x3ffe264614f5a129, 0x3ffe502ee78b3ff6, 0x3ffe7a51fbc74c83,
	0x3ffea4afa2a490da, 0x3ffecf482d8e67f1, 0x3ffefa1bee615a27, 0x3fff252b376bba97,
	0x3fff50765b6e4540, 0x3fff7bfdad9cbe14, 0x3fffa7c1819e90d8, 0x3fffd3c22b8f71f1,
}
