// Package rules implements SMACS Access Control Rules (ACRs, § IV-E): the
// white/blacklists of Fig. 6, organized into a rule set that the Token
// Service checks every token request against. Rule sets are safe for
// concurrent use and dynamically updatable by the owner without touching
// the deployed contract.
package rules

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// Mode selects list semantics.
type Mode string

// List modes.
const (
	// Whitelist admits only listed values.
	Whitelist Mode = "whitelist"
	// Blacklist admits everything except listed values.
	Blacklist Mode = "blacklist"
)

// ErrDenied is the sentinel wrapped by every rule rejection.
var ErrDenied = errors.New("rules: request denied")

// List is a single white- or blacklist over canonicalized values
// (addresses in 0x-hex, numbers in decimal — see core.ValueKey).
type List struct {
	mode    Mode
	entries map[string]bool
}

// NewList builds a list with the given mode and initial entries.
func NewList(mode Mode, entries ...string) *List {
	l := &List{mode: mode, entries: make(map[string]bool, len(entries))}
	for _, e := range entries {
		l.entries[canon(e)] = true
	}
	return l
}

func canon(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// Mode returns the list semantics.
func (l *List) Mode() Mode { return l.mode }

// Add inserts values.
func (l *List) Add(values ...string) {
	for _, v := range values {
		l.entries[canon(v)] = true
	}
}

// Remove deletes values.
func (l *List) Remove(values ...string) {
	for _, v := range values {
		delete(l.entries, canon(v))
	}
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.entries) }

// Admits reports whether the value passes the list.
func (l *List) Admits(value string) bool {
	return l.admitsListed(l.entries[canon(value)])
}

// admitsKey is Admits for a value held in a byte slice. A key canon
// leaves unchanged, such as every address and integer key, is looked up
// without becoming a string.
func (l *List) admitsKey(key []byte) bool {
	for i, c := range key {
		if c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' || (i == 0 || i == len(key)-1) && asciiSpace(c) {
			return l.Admits(string(key))
		}
	}
	return l.admitsListed(l.entries[string(key)])
}

func (l *List) admitsListed(listed bool) bool {
	if l.mode == Whitelist {
		return listed
	}
	return !listed
}

// asciiSpace reports whether c is an ASCII byte strings.TrimSpace trims.
func asciiSpace(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r'
}

// clone deep-copies the list.
func (l *List) clone() *List {
	c := &List{mode: l.mode, entries: make(map[string]bool, len(l.entries))}
	for k := range l.entries {
		c.entries[k] = true
	}
	return c
}

// RuleSet is the owner's ACR configuration for one SMACS-enabled contract,
// mirroring the structure of Fig. 6:
//
//   - a sender-level list governing who may obtain tokens at all,
//   - per-method sender lists (method and argument tokens), and
//   - per-argument value lists (argument tokens).
type RuleSet struct {
	mu        sync.RWMutex
	sender    *List
	methods   map[string]*List
	arguments map[string]*List
}

// NewRuleSet creates an empty, allow-all rule set (no lists configured).
func NewRuleSet() *RuleSet {
	return &RuleSet{
		methods:   make(map[string]*List),
		arguments: make(map[string]*List),
	}
}

// SetSenderList installs the sender-level list (nil removes it).
func (rs *RuleSet) SetSenderList(l *List) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.sender = l
}

// SetMethodList installs a per-method sender list (nil removes it).
func (rs *RuleSet) SetMethodList(method string, l *List) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if l == nil {
		delete(rs.methods, method)
		return
	}
	rs.methods[method] = l
}

// SetArgumentList installs a per-argument value list (nil removes it).
func (rs *RuleSet) SetArgumentList(argName string, l *List) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if l == nil {
		delete(rs.arguments, argName)
		return
	}
	rs.arguments[argName] = l
}

// AddSender / RemoveSender dynamically update the sender list — the
// "updatable ACRs" the paper's Examples 1 and 2 call for.
func (rs *RuleSet) AddSender(addrs ...string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.sender == nil {
		rs.sender = NewList(Whitelist)
	}
	rs.sender.Add(addrs...)
}

// RemoveSender removes addresses from the sender list.
func (rs *RuleSet) RemoveSender(addrs ...string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.sender != nil {
		rs.sender.Remove(addrs...)
	}
}

// Check evaluates a token request against the rule set. A nil error means
// the request complies; rejections wrap ErrDenied with the failing rule.
func (rs *RuleSet) Check(req *core.Request) error {
	rs.mu.RLock()
	defer rs.mu.RUnlock()

	var buf, argBuf [96]byte // each holds the key of any address or uint256
	sender := core.AppendAddressKey(buf[:0], req.Sender)
	if rs.sender != nil && !rs.sender.admitsKey(sender) {
		return fmt.Errorf("%w: sender %s fails the %s", ErrDenied, string(sender), rs.sender.mode)
	}
	if req.Type != core.SuperType && req.Method != "" {
		// Owners key method rules by the bare method name.
		name := req.MethodName()
		if l, ok := rs.methods[name]; ok && !l.admitsKey(sender) {
			return fmt.Errorf("%w: sender %s fails the %s of method %q", ErrDenied, string(sender), l.mode, name)
		}
	}
	if req.Type == core.ArgumentType {
		for _, arg := range req.Args {
			if l, ok := rs.arguments[arg.Name]; ok {
				key := core.AppendValueKey(argBuf[:0], arg.Value)
				if !l.admitsKey(key) {
					return fmt.Errorf("%w: argument %s=%s fails the %s", ErrDenied, arg.Name, string(key), l.mode)
				}
			}
		}
	}
	return nil
}

// Snapshot returns a deep copy of the rule set (for inspection without
// holding locks).
func (rs *RuleSet) Snapshot() *RuleSet {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := NewRuleSet()
	if rs.sender != nil {
		out.sender = rs.sender.clone()
	}
	for k, v := range rs.methods {
		out.methods[k] = v.clone()
	}
	for k, v := range rs.arguments {
		out.arguments[k] = v.clone()
	}
	return out
}

// jsonList is the wire form of a List in the Fig. 6 layout: an object with
// exactly one of the "whitelist"/"blacklist" keys.
type jsonList struct {
	Whitelist []string `json:"whitelist,omitempty"`
	Blacklist []string `json:"blacklist,omitempty"`
}

type jsonRuleSet struct {
	Sender   *jsonList           `json:"sender,omitempty"`
	Method   map[string]jsonList `json:"method,omitempty"`
	Argument map[string]jsonList `json:"argument,omitempty"`
}

func listToJSON(l *List) jsonList {
	vals := make([]string, 0, len(l.entries))
	for v := range l.entries {
		vals = append(vals, v)
	}
	if l.mode == Whitelist {
		return jsonList{Whitelist: vals}
	}
	return jsonList{Blacklist: vals}
}

func listFromJSON(j jsonList) (*List, error) {
	if len(j.Whitelist) > 0 && len(j.Blacklist) > 0 {
		return nil, errors.New("rules: list cannot be both white and black")
	}
	if len(j.Blacklist) > 0 {
		return NewList(Blacklist, j.Blacklist...), nil
	}
	return NewList(Whitelist, j.Whitelist...), nil
}

// MarshalJSON encodes the rule set in the Fig. 6 layout.
func (rs *RuleSet) MarshalJSON() ([]byte, error) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := jsonRuleSet{}
	if rs.sender != nil {
		jl := listToJSON(rs.sender)
		out.Sender = &jl
	}
	if len(rs.methods) > 0 {
		out.Method = make(map[string]jsonList, len(rs.methods))
		for k, v := range rs.methods {
			out.Method[k] = listToJSON(v)
		}
	}
	if len(rs.arguments) > 0 {
		out.Argument = make(map[string]jsonList, len(rs.arguments))
		for k, v := range rs.arguments {
			out.Argument[k] = listToJSON(v)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the Fig. 6 layout.
func (rs *RuleSet) UnmarshalJSON(data []byte) error {
	var in jsonRuleSet
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("rules: %w", err)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.sender = nil
	rs.methods = make(map[string]*List)
	rs.arguments = make(map[string]*List)
	if in.Sender != nil {
		l, err := listFromJSON(*in.Sender)
		if err != nil {
			return err
		}
		rs.sender = l
	}
	for k, v := range in.Method {
		l, err := listFromJSON(v)
		if err != nil {
			return err
		}
		rs.methods[k] = l
	}
	for k, v := range in.Argument {
		l, err := listFromJSON(v)
		if err != nil {
			return err
		}
		rs.arguments[k] = l
	}
	return nil
}
