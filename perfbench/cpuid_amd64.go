package main

import "strings"

func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

// cpuModel reads the processor brand string with CPUID, so the benchmark
// reads no file outside the directory it runs in.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000); max < 0x80000004 {
		return "unknown"
	}
	var regs [12]uint32
	for i := uint32(0); i < 3; i++ {
		a, b, c, d := cpuid(0x80000002 + i)
		regs[4*i], regs[4*i+1], regs[4*i+2], regs[4*i+3] = a, b, c, d
	}
	return brandString(regs)
}

// brandString decodes the CPUID processor brand string (leaves
// 0x80000002..0x80000004, 16 bytes each in EAX, EBX, ECX, EDX order).
func brandString(regs [12]uint32) string {
	b := make([]byte, 0, 48)
	for _, r := range regs {
		b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}
