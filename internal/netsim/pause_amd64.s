#include "textflag.h"

// func cpuPause()
TEXT ·cpuPause(SB), NOSPLIT, $0-0
	PAUSE
	RET
