helper:
.entry:
	movq	%rdi, %rax
	addq	$1, %rax
	ret
main:
.entry:
	movq	$5, %rdi
	movq	$9, %rcx
	cmpq	$3, %rdi
	jl	.skip
	call	helper
	movq	%rax, %rdi
	call	print_int
	call	missing
	jmp	.done
.dead:
	movq	$4, %rdx
	movq	%rdx, %rax
	jmp	.nowhere
.skip:
	movq	%rcx, %rdi
	call	print_int
.done:
	movq	$0, %rax
	ret
