package core

import "math"

// This file holds the Float32-tier bodies of the flat evaluation kernels:
// the same run-blocked, four-row-jammed loops as lists.go, but streaming
// the float32 SoA mirrors (soa32.go) and doing the per-pair arithmetic in
// float32 — float32 subtract/multiply, SQRTSS square roots, the 32-bit
// expNeg32 polynomial — while every accumulator stays float64, so the
// tier's error is bounded by input quantization and per-term rounding,
// not by summation drift over tens of millions of terms. Which tier runs
// is decided once per solver (s.f32 != nil), never per pair.

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// evalBornNearRunF32 is evalBornNearRun on the float32 mirrors.
func (s *BornSolver) evalBornNearRunF32(entries []NodePair, q int32, sAtom []float64, base int32) {
	m := s.f32
	qlo, qhi := s.TQ.PointRange(q)
	ax, ay, az := m.ax, m.ay, m.az
	qx := m.qx[qlo:qhi]
	n := len(qx)
	qy := m.qy[qlo:qhi][:n]
	qz := m.qz[qlo:qhi][:n]
	wx := m.wx[qlo:qhi][:n]
	wy := m.wy[qlo:qhi][:n]
	wz := m.wz[qlo:qhi][:n]
	r4 := s.r4
	for _, p := range entries {
		alo, ahi := s.TA.PointRange(p.A)
		i := alo
		for ; i+4 <= ahi; i += 4 {
			px0, py0, pz0 := ax[i], ay[i], az[i]
			px1, py1, pz1 := ax[i+1], ay[i+1], az[i+1]
			px2, py2, pz2 := ax[i+2], ay[i+2], az[i+2]
			px3, py3, pz3 := ax[i+3], ay[i+3], az[i+3]
			var c0, c1, c2, c3 float64
			if r4 {
				for j := 0; j < n; j++ {
					xj, yj, zj := qx[j], qy[j], qz[j]
					wxj, wyj, wzj := wx[j], wy[j], wz[j]
					dx, dy, dz := xj-px0, yj-py0, zj-pz0
					d2 := dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						c0 += float64((wxj*dx + wyj*dy + wzj*dz) * (1 / (d2 * d2)))
					}
					dx, dy, dz = xj-px1, yj-py1, zj-pz1
					d2 = dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						c1 += float64((wxj*dx + wyj*dy + wzj*dz) * (1 / (d2 * d2)))
					}
					dx, dy, dz = xj-px2, yj-py2, zj-pz2
					d2 = dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						c2 += float64((wxj*dx + wyj*dy + wzj*dz) * (1 / (d2 * d2)))
					}
					dx, dy, dz = xj-px3, yj-py3, zj-pz3
					d2 = dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						c3 += float64((wxj*dx + wyj*dy + wzj*dz) * (1 / (d2 * d2)))
					}
				}
			} else {
				for j := 0; j < n; j++ {
					xj, yj, zj := qx[j], qy[j], qz[j]
					wxj, wyj, wzj := wx[j], wy[j], wz[j]
					dx, dy, dz := xj-px0, yj-py0, zj-pz0
					d2 := dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						c0 += float64((wxj*dx + wyj*dy + wzj*dz) * (1 / (d2 * d2 * d2)))
					}
					dx, dy, dz = xj-px1, yj-py1, zj-pz1
					d2 = dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						c1 += float64((wxj*dx + wyj*dy + wzj*dz) * (1 / (d2 * d2 * d2)))
					}
					dx, dy, dz = xj-px2, yj-py2, zj-pz2
					d2 = dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						c2 += float64((wxj*dx + wyj*dy + wzj*dz) * (1 / (d2 * d2 * d2)))
					}
					dx, dy, dz = xj-px3, yj-py3, zj-pz3
					d2 = dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						c3 += float64((wxj*dx + wyj*dy + wzj*dz) * (1 / (d2 * d2 * d2)))
					}
				}
			}
			row := sAtom[i-base : i-base+4]
			row[0] += c0
			row[1] += c1
			row[2] += c2
			row[3] += c3
		}
		for ; i < ahi; i++ {
			px, py, pz := ax[i], ay[i], az[i]
			var acc float64
			if r4 {
				for j := 0; j < n; j++ {
					dx, dy, dz := qx[j]-px, qy[j]-py, qz[j]-pz
					d2 := dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						acc += float64((wx[j]*dx + wy[j]*dy + wz[j]*dz) * (1 / (d2 * d2)))
					}
				}
			} else {
				for j := 0; j < n; j++ {
					dx, dy, dz := qx[j]-px, qy[j]-py, qz[j]-pz
					d2 := dx*dx + dy*dy + dz*dz
					if d2 >= 1e-12 {
						acc += float64((wx[j]*dx + wy[j]*dy + wz[j]*dz) * (1 / (d2 * d2 * d2)))
					}
				}
			}
			sAtom[i-base] += acc
		}
	}
}

// evalBornFarRangeF32 is the far-field kernel on the float32 mirrors.
func (s *BornSolver) evalBornFarRangeF32(l *InteractionList, lo, hi int, sNode []float64) {
	m := s.f32
	far := l.Far[lo:hi]
	acx, acy, acz := m.acx, m.acy, m.acz
	qcx, qcy, qcz := m.qcx, m.qcy, m.qcz
	wqx, wqy, wqz := m.wnx, m.wny, m.wnz
	lastQ := int32(-1)
	var cqx, cqy, cqz, nx, ny, nz float32
	if s.r4 {
		for _, p := range far {
			if p.B != lastQ {
				lastQ = p.B
				cqx, cqy, cqz = qcx[p.B], qcy[p.B], qcz[p.B]
				nx, ny, nz = wqx[p.B], wqy[p.B], wqz[p.B]
			}
			dx, dy, dz := cqx-acx[p.A], cqy-acy[p.A], cqz-acz[p.A]
			d2 := dx*dx + dy*dy + dz*dz
			sNode[p.A] += float64((nx*dx + ny*dy + nz*dz) * (1 / (d2 * d2)))
		}
		return
	}
	for _, p := range far {
		if p.B != lastQ {
			lastQ = p.B
			cqx, cqy, cqz = qcx[p.B], qcy[p.B], qcz[p.B]
			nx, ny, nz = wqx[p.B], wqy[p.B], wqz[p.B]
		}
		dx, dy, dz := cqx-acx[p.A], cqy-acy[p.A], cqz-acz[p.A]
		d2 := dx*dx + dy*dy + dz*dz
		sNode[p.A] += float64((nx*dx + ny*dy + nz*dz) * (1 / (d2 * d2 * d2)))
	}
}

// evalEpolNearRunF32 is evalEpolNearRun on the float32 mirrors. The GB
// pair term runs entirely in float32 (expNeg32 for the Still exponential,
// SQRTSS for the root); the self-pair conditional overwrite is the same
// trick as the float64 lanes.
func (s *EpolSolver) evalEpolNearRunF32(entries []NodePair, v int32) float64 {
	m := s.f32
	vlo, vhi := s.T.PointRange(v)
	x, y, z, qa, ra := m.x, m.y, m.z, m.q, m.r
	xv := x[vlo:vhi]
	n := len(xv)
	yv := y[vlo:vhi][:n]
	zv := z[vlo:vhi][:n]
	qv := qa[vlo:vhi][:n]
	Rv := ra[vlo:vhi][:n]
	iv := m.ir[vlo:vhi][:n]
	var sum float64
	for _, p := range entries {
		ulo, uhi := s.T.PointRange(p.A)
		i := ulo
		for ; i+2 <= uhi; i += 2 {
			px0, py0, pz0, q0, r0 := x[i], y[i], z[i], qa[i], ra[i]
			px1, py1, pz1, q1, r1 := x[i+1], y[i+1], z[i+1], qa[i+1], ra[i+1]
			g0 := -0.25 * m.ir[i]
			g1 := -0.25 * m.ir[i+1]
			d0 := int(i - vlo)
			var c0, c1 float64
			for j := 0; j < n; j++ {
				xj, yj, zj := xv[j], yv[j], zv[j]
				qj, rj, irj := qv[j], Rv[j], iv[j]
				dx, dy, dz := px0-xj, py0-yj, pz0-zj
				d2 := dx*dx + dy*dy + dz*dz
				t := q0 * qj / sqrt32(d2+r0*rj*expNeg32(d2*g0*irj))
				if j == d0 {
					t = q0 * q0 / r0
				}
				c0 += float64(t)
				dx, dy, dz = px1-xj, py1-yj, pz1-zj
				d2 = dx*dx + dy*dy + dz*dz
				t = q1 * qj / sqrt32(d2+r1*rj*expNeg32(d2*g1*irj))
				if j == d0+1 {
					t = q1 * q1 / r1
				}
				c1 += float64(t)
			}
			sum += c0 + c1
		}
		for ; i < uhi; i++ {
			px, py, pz, qi, ri := x[i], y[i], z[i], qa[i], ra[i]
			gi := -0.25 * m.ir[i]
			diag := int(i - vlo)
			var acc float64
			for j := 0; j < n; j++ {
				dx, dy, dz := px-xv[j], py-yv[j], pz-zv[j]
				d2 := dx*dx + dy*dy + dz*dz
				t := qi * qv[j] / sqrt32(d2+ri*Rv[j]*expNeg32(d2*gi*iv[j]))
				if j == diag {
					t = qi * qi / ri
				}
				acc += float64(t)
			}
			sum += acc
		}
	}
	return sum
}

// evalEpolFarPairF32 is the bin-pair far-field kernel on the float32
// mirrors.
func (s *EpolSolver) evalEpolFarPairF32(u, v int32) float64 {
	m := s.f32
	cx, cy, cz := m.cx, m.cy, m.cz
	ddx, ddy, ddz := cx[u]-cx[v], cy[u]-cy[v], cz[u]-cz[v]
	d2 := ddx*ddx + ddy*ddy + ddz*ddz
	uLo, uHi := s.nzStart[u], s.nzStart[u+1]
	vLo, vHi := s.nzStart[v], s.nzStart[v+1]
	nzBin, nzQ, binRR := s.nzBin, m.nzQ, m.binRR
	var sum float64
	for a := uLo; a < uHi; a++ {
		qi, bi := nzQ[a], nzBin[a]
		for b := vLo; b < vHi; b++ {
			rr := binRR[bi+nzBin[b]]
			sum += float64(qi * nzQ[b] / sqrt32(d2+rr*expNeg32(-d2/(4*rr))))
		}
	}
	return sum
}
