// Command guardian-repl is an interactive Scheme read-eval-print loop
// over the simulated generation-based heap. The guardian machinery of
// the paper is available exactly as published: make-guardian,
// make-transport-guardian, make-guarded-hash-table, weak-cons,
// collect, collect-request-handler, and the guarded file operations
// (against an in-memory file system).
//
// Try the paper's session:
//
//	> (define G (make-guardian))
//	> (define x (cons 'a 'b))
//	> (G x)
//	> (G)
//	#f
//	> (set! x #f)
//	> (collect 1)
//	> (G)
//	(a . b)
//
// Usage:
//
//	guardian-repl            # interactive
//	guardian-repl file.scm   # run a file, then exit
//	guardian-repl -stats ... # print collector statistics at exit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/heap"
	"repro/internal/scheme"
)

func main() {
	var (
		stats       = flag.Bool("stats", false, "print collector statistics at exit")
		generations = flag.Int("generations", 4, "number of heap generations")
		trigger     = flag.Int("trigger", 64*512, "gen-0 words between collect requests")
		autotune    = flag.Bool("autotune", false, "self-tune the gen-0 trigger from measured survival")
		loadImage   = flag.String("load-image", "", "restore a machine image saved with -save-image")
		saveImage   = flag.String("save-image", "", "write a machine image at exit")
	)
	flag.Parse()

	cfg := heap.DefaultConfig()
	cfg.Generations = *generations
	if *autotune {
		cfg.Policy = &heap.AdaptivePolicy{Initial: *trigger}
	} else {
		cfg.Policy = heap.RadixPolicy{Trigger: *trigger}
	}
	var h *heap.Heap
	var m *scheme.Machine
	if *loadImage != "" {
		f, err := os.Open(*loadImage)
		if err != nil {
			fmt.Fprintf(os.Stderr, "guardian-repl: %v\n", err)
			os.Exit(1)
		}
		m, err = scheme.LoadMachineImage(f, nil)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "guardian-repl: %v\n", err)
			os.Exit(1)
		}
		h = m.H
	} else {
		var err error
		h, err = heap.New(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "guardian-repl: %v\n", err)
			os.Exit(1)
		}
		m = scheme.New(h, nil)
	}
	m.Out = os.Stdout
	writeImage := func() {
		if *saveImage == "" {
			return
		}
		f, err := os.Create(*saveImage)
		if err == nil {
			err = m.SaveImage(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "guardian-repl: save-image: %v\n", err)
		}
	}
	defer writeImage()
	eval := m.EvalString

	if flag.NArg() > 0 {
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "guardian-repl: %v\n", err)
			os.Exit(1)
		}
		if _, err := eval(string(src)); err != nil {
			var exitErr *scheme.ExitError
			if errors.As(err, &exitErr) {
				writeImage()
				os.Exit(exitErr.Code)
			}
			fmt.Fprintf(os.Stderr, "guardian-repl: %v\n", err)
			os.Exit(1)
		}
		if *stats {
			fmt.Fprintln(os.Stderr, h.Stats.String())
		}
		return
	}

	fmt.Println("guardians in a generation-based garbage collector — PLDI 1993 reproduction")
	fmt.Printf("%d generations, %d-word gen-0 trigger (%s policy); (collect [g]) collects explicitly\n",
		cfg.Generations, h.TriggerWords(), h.Policy().Name())
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	for {
		if pending.Len() == 0 {
			fmt.Print("> ")
		} else {
			fmt.Print("  ")
		}
		if !in.Scan() {
			break
		}
		pending.WriteString(in.Text())
		pending.WriteByte('\n')
		src := pending.String()
		if !balanced(src) {
			continue
		}
		pending.Reset()
		if strings.TrimSpace(src) == "" {
			continue
		}
		v, err := eval(src)
		if err != nil {
			var exitErr *scheme.ExitError
			if errors.As(err, &exitErr) {
				writeImage()
				if *stats {
					fmt.Fprintln(os.Stderr, h.Stats.String())
				}
				os.Exit(exitErr.Code)
			}
			fmt.Println(err)
			continue
		}
		if s := m.WriteString(v); s != "#<void>" {
			fmt.Println(s)
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, h.Stats.String())
	}
}

// balanced reports whether src has no unclosed parens or strings, so
// multi-line forms can be typed naturally.
func balanced(src string) bool {
	depth := 0
	inStr := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		}
	}
	return depth <= 0 && !inStr
}
