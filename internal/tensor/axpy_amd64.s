//go:build amd64 && !purego

#include "textflag.h"

// func axpy(a float64, x, y []float64)
//
// y[j] += a*x[j] for j < len(y). Each element is x[j]*a rounded, then that
// product plus y[j] rounded: the two roundings of the Go loop, in its order.
// Lanes run across j only. Sixteen elements per
// iteration in four YMM registers, then four at a time, then a VEX scalar
// tail: legacy SSE encodings after 256-bit instructions would stall on the
// AVX/SSE state transition.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	VBROADCASTSD a+0(FP), Y0
	XORQ         AX, AX

	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   quad

loop16:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JLT     loop16

quad:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  tail

loop4:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     loop4

tail:
	CMPQ AX, CX
	JGE  done

loop1:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
