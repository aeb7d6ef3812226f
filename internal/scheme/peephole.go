package scheme

// optimize performs peephole optimization on compiled code. The only
// transformation is jump threading: a jump (conditional or not) whose
// target is itself an unconditional jump is retargeted at the final
// destination. Nested ifs and desugared cond/case chains produce such
// jump-to-jump sequences. Instructions are never inserted or removed,
// so no target remapping is needed.
func optimize(instrs []Instr) {
	final := func(target int) int {
		seen := 0
		for target < len(instrs) && instrs[target].Op == OpJump {
			target = instrs[target].A
			seen++
			if seen > len(instrs) { // jump cycle: leave as-is
				return target
			}
		}
		return target
	}
	for i := range instrs {
		switch instrs[i].Op {
		case OpJump, OpJumpIfFalse:
			instrs[i].A = final(instrs[i].A)
		}
	}
}
