package server

import (
	"fmt"

	"repro/internal/domain"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/vm"
)

// mailboxCapacity bounds queued messages per mailbox, so a hostile
// peer cannot exhaust server memory by flooding (an annoyance attack,
// §5).
const mailboxCapacity = 1024

// newMailbox builds the mailbox resource through which co-located
// agents communicate. The paper folds inter-agent communication into
// the same protection scheme: "an agent can make itself available to
// other agents in similar fashion, by registering itself as a
// resource" — peers obtain proxies to the mailbox and invoke send;
// the owning agent drains it with the recv primitive. The proxy layer
// supplies authentication of the sender's domain and policy-based
// screening for free.
func (s *Server) newMailbox(v *visit, rn names.Name, path string) *resource.Def {
	return &resource.Def{
		ResourceImpl: resource.ResourceImpl{
			Name:  rn,
			Owner: v.agent.Credentials.Owner,
			Desc:  fmt.Sprintf("mailbox of %s", v.agent.Name),
		},
		Path: path,
		Methods: map[string]resource.Method{
			// send(message) — open to any principal the policy lets
			// through; the proxy identifies the sending domain.
			"send": func(args []vm.Value) (vm.Value, error) {
				if len(args) != 1 {
					return vm.Nil(), fmt.Errorf("%w: send wants 1 arg", ErrBadArg)
				}
				if err := args[0].CheckDepth(); err != nil {
					return vm.Nil(), err
				}
				v.mailMu.Lock()
				defer v.mailMu.Unlock()
				if len(v.mailbox) >= mailboxCapacity {
					return vm.Nil(), fmt.Errorf("server: mailbox %s full", rn)
				}
				v.mailbox = append(v.mailbox, args[0].Clone())
				return vm.B(true), nil
			},
			// pending() — queue length; owner-restricted by policy.
			"pending": func(args []vm.Value) (vm.Value, error) {
				v.mailMu.Lock()
				defer v.mailMu.Unlock()
				return vm.I(int64(len(v.mailbox))), nil
			},
		},
		Controllers: []domain.ID{v.dom},
	}
}

// policyOwnerRule grants the mailbox owner full access.
func policyOwnerRule(owner names.Name, path string) policy.Rule {
	return policy.Rule{Principal: owner, Resource: path, Methods: []string{"*"}}
}

// policySendRule lets every principal deliver to the mailbox.
func policySendRule(path string) policy.Rule {
	return policy.Rule{AnyPrincipal: true, Resource: path, Methods: []string{"send"}}
}
