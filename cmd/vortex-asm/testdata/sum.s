# Sums N words starting at BUF into t2 and stores the total after them.
.tag init
start:
	li   t0, N
	li   t1, BUF
	li   t2, 0
.tag loop
loop:
	lw   t3, 0(t1)
	add  t2, t2, t3
	addi t1, t1, 4
	addi t0, t0, -1
	bnez t0, loop
.tag exit
	sw   t2, 0(t1)
	ecall
