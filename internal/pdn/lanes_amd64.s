#include "textflag.h"
#include "go_asm.h"

// ROW addresses row r of the pack at DI: four float64s, one per lane.
#define ROW(r) (r*32)(DI)

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func stepPack(rows *packRows, dt float64, k int)
//
// The state lives in registers for all k substeps:
//
//	Y0 iL0   Y1 iL1   Y2 iL2   Y3 iLb   Y4 vC1   Y5 vP    Y6 vCb   Y7 vC3
//	Y8 iEMA  Y9 bias  Y10 err  Y11 t    Y12 load Y13 dt   Y14, Y15 scratch
//
// Each line below is one scalar operation of stepLanes' substep, in its
// order, on all four lanes. Operands of an add or a multiply may sit in
// either order (IEEE-754 addition and multiplication commute); every
// subtraction and division keeps the scalar operand order. In Go syntax
// a three-operand instruction reads "OP b, a, dst" for dst = a OP b.
TEXT ·stepPack(SB), NOSPLIT, $0-24
	MOVQ rows+0(FP), DI
	VBROADCASTSD dt+8(FP), Y13
	MOVQ k+16(FP), CX
	VMOVUPD ROW(const_rIL0), Y0
	VMOVUPD ROW(const_rIL1), Y1
	VMOVUPD ROW(const_rIL2), Y2
	VMOVUPD ROW(const_rILb), Y3
	VMOVUPD ROW(const_rVC1), Y4
	VMOVUPD ROW(const_rVP), Y5
	VMOVUPD ROW(const_rVCb), Y6
	VMOVUPD ROW(const_rVC3), Y7
	VMOVUPD ROW(const_rIEMA), Y8
	VMOVUPD ROW(const_rBias), Y9
	VMOVUPD ROW(const_rErr), Y10
	VMOVUPD ROW(const_rT), Y11
	VMOVUPD ROW(const_rLoad), Y12

substep:
	// iEMA += ffA * (iLoad - iEMA); ff = iEMA * rTotal
	VSUBPD Y8, Y12, Y14
	VMULPD ROW(const_rFFA), Y14, Y14
	VADDPD Y14, Y8, Y8
	VMULPD ROW(const_rRTotal), Y8, Y14

	// vReg = pVNom + ff + regBias + regP*regErr
	VADDPD ROW(const_rVNom), Y14, Y14
	VADDPD Y9, Y14, Y14
	VMULPD ROW(const_rRegP), Y10, Y15
	VADDPD Y15, Y14, Y14

	// d0 = iL0 + dt*(vReg-vC1)/pL0
	VSUBPD Y4, Y14, Y14
	VMULPD Y14, Y13, Y14
	VDIVPD ROW(const_rL0), Y14, Y14
	VADDPD Y14, Y0, Y0

	// d1 = iL1 + dt*(vC1-vP)/pL1
	VSUBPD Y5, Y4, Y14
	VMULPD Y14, Y13, Y14
	VDIVPD ROW(const_rL1), Y14, Y14
	VADDPD Y14, Y1, Y1

	// d2 = iL2 + dt*(vP-vC3+pESR3*iLoad)/pL2
	VSUBPD Y7, Y5, Y14
	VMULPD ROW(const_rESR3), Y12, Y15
	VADDPD Y15, Y14, Y14
	VMULPD Y14, Y13, Y14
	VDIVPD ROW(const_rL2), Y14, Y14
	VADDPD Y14, Y2, Y2

	// db = iLb + dt*(vP-vCb)/esl2
	VSUBPD Y6, Y5, Y14
	VMULPD Y14, Y13, Y14
	VDIVPD ROW(const_rESL2), Y14, Y14
	VADDPD Y14, Y3, Y3

	// iL0, iL1 = (d0*cb1-cc0*d1)/det, (cb0*d1-ca1*d0)/det
	VMULPD ROW(const_rB1), Y0, Y14
	VMULPD ROW(const_rC0), Y1, Y15
	VSUBPD Y15, Y14, Y14
	VMULPD ROW(const_rB0), Y1, Y15
	VMULPD ROW(const_rA1), Y0, Y1
	VSUBPD Y1, Y15, Y15
	VDIVPD ROW(const_rDet), Y14, Y0
	VDIVPD ROW(const_rDet), Y15, Y1

	// iL2 = d2 / cb2; iLb = db / cbb
	VDIVPD ROW(const_rB2), Y2, Y2
	VDIVPD ROW(const_rBb), Y3, Y3

	// vC1 += dt * (iL0 - iL1) / pC1
	VSUBPD Y1, Y0, Y14
	VMULPD Y14, Y13, Y14
	VDIVPD ROW(const_rC1), Y14, Y14
	VADDPD Y14, Y4, Y4

	// vP += dt * (iL1 - iL2 - iLb) / pCPl
	VSUBPD Y2, Y1, Y14
	VSUBPD Y3, Y14, Y14
	VMULPD Y14, Y13, Y14
	VDIVPD ROW(const_rCPl), Y14, Y14
	VADDPD Y14, Y5, Y5

	// vCb += dt * iLb / c2
	VMULPD Y3, Y13, Y14
	VDIVPD ROW(const_rC2), Y14, Y14
	VADDPD Y14, Y6, Y6

	// iC3 = iL2 - iLoad; vC3 += dt * iC3 / pC3
	VSUBPD Y12, Y2, Y15
	VMULPD Y15, Y13, Y14
	VDIVPD ROW(const_rC3), Y14, Y14
	VADDPD Y14, Y7, Y7

	// t += dt
	VADDPD Y13, Y11, Y11

	// v = vC3 + pESR3*iC3
	VMULPD ROW(const_rESR3), Y15, Y15
	VADDPD Y15, Y7, Y15
	VMOVUPD Y15, ROW(const_rV)

	// err = pVNom - v; regBias += kI * err
	VMOVUPD ROW(const_rVNom), Y14
	VSUBPD Y15, Y14, Y14
	VMULPD ROW(const_rKI), Y14, Y15
	VADDPD Y15, Y9, Y9

	// Clamp regBias to ±regLimit. VMAXPD and VMINPD return their second
	// source (the first operand in Go syntax) when either input is NaN,
	// so a NaN bias stays NaN, as the scalar branches leave it.
	VMOVUPD ROW(const_rNegLimit), Y15
	VMAXPD Y9, Y15, Y9
	VMOVUPD ROW(const_rLimit), Y15
	VMINPD Y9, Y15, Y9

	// regErr += ffA * (err - regErr)
	VSUBPD Y10, Y14, Y14
	VMULPD ROW(const_rFFA), Y14, Y14
	VADDPD Y14, Y10, Y10

	DECQ CX
	JNZ  substep

	VMOVUPD Y0, ROW(const_rIL0)
	VMOVUPD Y1, ROW(const_rIL1)
	VMOVUPD Y2, ROW(const_rIL2)
	VMOVUPD Y3, ROW(const_rILb)
	VMOVUPD Y4, ROW(const_rVC1)
	VMOVUPD Y5, ROW(const_rVP)
	VMOVUPD Y6, ROW(const_rVCb)
	VMOVUPD Y7, ROW(const_rVC3)
	VMOVUPD Y8, ROW(const_rIEMA)
	VMOVUPD Y9, ROW(const_rBias)
	VMOVUPD Y10, ROW(const_rErr)
	VMOVUPD Y11, ROW(const_rT)
	VZEROUPPER
	RET
