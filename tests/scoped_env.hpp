/**
 * @file
 * ScopedEnv: set (or unset) an environment variable for one test
 * scope and restore its previous value afterwards, so a knob a test
 * sets cannot leak into the tests after it or clobber a value the
 * whole run was started with (the TSan CI step's NVFS_JOBS=8).
 */

#pragma once

#include <cstdlib>
#include <string>

namespace nvfs {

/** Scoped env var: set on construction, restore on destruction. */
class ScopedEnv
{
  public:
    /** @param value new value; nullptr unsets the variable */
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            hadOld_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

    ~ScopedEnv()
    {
        if (hadOld_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool hadOld_ = false;
    std::string old_;
};

} // namespace nvfs
