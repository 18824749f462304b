# Every op in canonical form, the min and max of each immediate kind, every
# pseudo-instruction, li/la on both sides of the 12-bit boundary and every
# directive. Assembled at 0x1000; the listing is every_op.golden.
.equ SMALL, 2047
.equ BIG, 0x12345678

.tag rv32i
start:
	lui    a0, 0
	lui    a1, 0xfffff
	auipc  a2, 0
	auipc  a3, 0xfffff
jmin:	jal    ra, jmin - 0x100000
jmax:	jal    zero, jmax + 0xffffe
	jalr   ra, -2048(a0)
	jalr   zero, 2047(t6)
	jalr   x5, (x6)
bmin:	beq    a0, a1, bmin - 4096
bmax:	bne    a2, a3, bmax + 4094
	blt    s0, s1, start
	bge    t0, t1, start
	bltu   t2, t3, start
	bgeu   t4, t5, start
	lb     a0, -2048(sp)
	lh     a1, 2047(sp)
	lw     a2, 0(gp)
	lbu    a3, (tp)
	lhu    a4, 4(s11)
	sb     a0, -2048(sp)
	sh     a1, 2047(fp)
	sw     a2, (s0)
	addi   a0, a1, -2048
	slti   a0, a1, 2047
	sltiu  a0, a1, 0
	xori   a0, a1, -1
	ori    a0, a1, 0x7ff
	andi   a0, a1, SMALL
	slli   a0, a1, 0
	srli   a0, a1, 31
	srai   x31, x30, 17
	add    a0, a1, a2
	sub    a3, a4, a5
	sll    a6, a7, s2
	slt    s3, s4, s5
	sltu   s6, s7, s8
	xor    s9, s10, s11
	srl    t3, t4, t5
	sra    t6, zero, ra
	or     sp, gp, tp
	and    x0, x1, x2
	fence
	ecall
	ebreak
	csrrw  a0, tid, a1
	csrrs  a0, 0, zero
	csrrc  a0, 0xfff, t0
	csrrwi a0, cycle, 0
	csrrsi a0, instreth, 31
	csrrci zero, nc, 7

.tag rv32m
	mul    a0, a1, a2
	mulh   a0, a1, a2
	mulhsu a0, a1, a2
	mulhu  a0, a1, a2
	div    a0, a1, a2
	divu   a0, a1, a2
	rem    a0, a1, a2
	remu   a0, a1, a2

.tag rv32f
	flw       ft0, -2048(a0)
	fsw       ft11, 2047(a0)
	flw       fa0, (sp)
	fadd.s    f0, f1, f2
	fsub.s    f3, f4, f5
	fmul.s    f6, f7, f8
	fdiv.s    f9, f10, f11
	fsqrt.s   f12, f13
	fsgnj.s   f14, f15, f16
	fsgnjn.s  f17, f18, f19
	fsgnjx.s  f20, f21, f22
	fmin.s    f23, f24, f25
	fmax.s    f26, f27, f28
	fcvt.w.s  a0, f29
	fcvt.wu.s a1, f30
	fcvt.s.w  f31, a2
	fcvt.s.wu fs0, a3
	fmv.x.w   a4, fs11
	fmv.w.x   fa7, a5
	feq.s     a0, f1, f2
	flt.s     a0, f1, f2
	fle.s     a0, f1, f2
	fclass.s  a0, f31
	fmadd.s   f0, f1, f2, f3
	fmsub.s   f4, f5, f6, f7
	fnmsub.s  f8, f9, f10, f11
	fnmadd.s  f28, f29, f30, f31

.tag vortex
	vx_tmc    a0
	vx_wspawn a0, a1
	vx_split  a2
	vx_join
	vx_bar    a3, a4
	vx_pred   a5
	vx_ballot a6, a7

.tag pseudo
	mv     a0, a1
	nop
	not    a2, a3
	neg    a4, a5
	seqz   a6, a7
	snez   s2, s3
	j      start
	call   start
	jal    start
	jal    t0, start
	jr     t1
	jalr   t2
	jalr   s0, 8(s1)
	ret
	beqz   a0, start
	bnez   a0, start
	bltz   a0, start
	bgez   a0, start
	blez   a0, start
	bgtz   a0, start
	bgt    a0, a1, start
	ble    a0, a1, start
	bgtu   a0, a1, start
	bleu   a0, a1, start
	fmv.s  f0, f1
	fneg.s f2, f3
	fabs.s f4, f5
	csrr   a0, wid
	csrw   0x800, a0

.tag li
	li     a0, 2047
	li     a0, 2048
	li     a0, -2048
	li     a0, -2049
	li     a0, 0xFFFFF800
	li     a0, 0xFFFFF7FF
	li     a0, 0xFFFFFFFF
	li     a0, 0x7FFFFFFF
	li     a0, -0x80000000
	li     a0, SMALL
	li     a0, SMALL + 1
	li     a0, BIG
	la     a1, start
	la     a2, data
	li     a3, data

.tag data
data:
	.word  0x12345678, 0, end
	.byte  1, 2, 3, 4, -128, 255
	.half  0x1234, -32768, 65535
	.ascii "Hi!"
	.asciz "ok"
	.space 8
	.align 16
end:
