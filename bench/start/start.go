// Package start records when the benchmark process began initializing the
// code under test. Go initializes packages one at a time, each step taking
// the first package by import path whose imports are all initialized. This
// package imports only time and its path sorts before whisper/internal/...,
// so it is initialized before every package of the program: Time leaves out
// only the Go runtime's and the standard library's start-up.
package start

import "time"

// Time is when this package was initialized.
var Time = time.Now()
