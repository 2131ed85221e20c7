// Package doccheck finds the command lines a document shows for one of
// the repo's binaries and checks them against the flags the binary
// registers, so a deleted or renamed flag left in a README is a failing
// test rather than a command the reader cannot run.
package doccheck

import (
	"flag"
	"fmt"
	"regexp"
	"strings"
)

var (
	trailingComment = regexp.MustCompile(`(?m)[ \t]#.*$`)
	flagContinues   = regexp.MustCompile(`\n\s*(--?[a-z])`)
	flagWord        = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=(.*))?`)
)

// Invocations returns the argument words of every `<binary> …` command
// line in text: a backslash-newline or a following line that opens with
// a flag continues the command, a trailing " # comment" does not belong
// to it, and it ends at a shell operator or the closing backquote of
// inline code.
func Invocations(text, binary string) [][]string {
	text = strings.ReplaceAll(text, "\\\n", " ")
	text = trailingComment.ReplaceAllString(text, "")
	text = flagContinues.ReplaceAllString(text, " $1")
	command := regexp.MustCompile(regexp.QuoteMeta(binary) + "((?:[ \t]+[^\\s|>;&`)]+)*)")
	var out [][]string
	for _, m := range command.FindAllStringSubmatch(text, -1) {
		out = append(out, strings.Fields(m[1]))
	}
	return out
}

// Check returns one error per flag that an invocation of binary in text
// names but fs does not register. When value is non-nil it also vets
// every registered flag's value: the text after "=", else the next word.
func Check(text, binary string, fs *flag.FlagSet, value func(name, value string) error) []error {
	var errs []error
	for _, words := range Invocations(text, binary) {
		line := binary + " " + strings.Join(words, " ")
		for i, word := range words {
			m := flagWord.FindStringSubmatch(word)
			if m == nil {
				continue
			}
			if fs.Lookup(m[1]) == nil {
				errs = append(errs, fmt.Errorf("%q names -%s, which %s does not register", line, m[1], binary))
				continue
			}
			if value == nil {
				continue
			}
			v := m[2]
			if v == "" && i+1 < len(words) {
				v = words[i+1]
			}
			if err := value(m[1], strings.TrimRight(v, ",.:")); err != nil {
				errs = append(errs, fmt.Errorf("%q: %w", line, err))
			}
		}
	}
	return errs
}
