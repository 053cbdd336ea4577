// Lint self-test fixture: blocks inside handlers, which would stall the
// composite's dispatch thread. Both waits must trip 'no-dispatch-wait':
// the untimed one on line 9 and the timed one on line 12. Not compiled —
// only scanned by cqos_lint.
void BadProtocol_init(cactus::CompositeProtocol& proto) {
  bind_tracked(proto, ev::kNewRequest, "bad.blocker",
               [](cactus::EventContext& ctx) {
                 auto req = std::any_cast<RequestPtr>(ctx.arg());
                 req->wait();  // indefinite — no timeout
                 RequestPtr original = req;
                 // timed, and still a parked dispatch thread
                 if (original->wait(ms(2000))) return;
               });
}
