/**
 * @file
 * Spans the benchmark records around its calls into each library
 * layer.  Spans stay in memory as {name, start, end, parent, op} and
 * are written out when the run ends; a disabled tracer records
 * nothing, so untraced ops pay one branch per call site.
 */

#ifndef VBENCH_TRACE_H
#define VBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <vector>

namespace vbench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed call.  @c op is the op index, -1 outside any op. */
struct Span
{
    const char *name;
    std::int64_t start;
    std::int64_t end;
    int parent; //!< index into the span list, -1 for a root
    int op;
};

class Tracer
{
  public:
    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name)
            : tracer_(tracer), index_(tracer ? tracer->open(name) : -1)
        {
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        int index_;
    };

    Scope
    span(const char *name)
    {
        return Scope(enabled_ ? this : nullptr, name);
    }

    void setEnabled(bool enabled) { enabled_ = enabled; }
    void setOp(int op) { op_ = op; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    int
    open(const char *name)
    {
        const int index = static_cast<int>(spans_.size());
        spans_.push_back(Span{name, nowNs(), 0, current_, op_});
        current_ = index;
        return index;
    }
    void
    close(int index)
    {
        spans_[static_cast<std::size_t>(index)].end = nowNs();
        current_ = spans_[static_cast<std::size_t>(index)].parent;
    }

    bool enabled_ = false;
    int op_ = -1;
    int current_ = -1;
    std::vector<Span> spans_;
};

} // namespace vbench

#endif // VBENCH_TRACE_H
